module Engine = Xguard_sim.Engine
module Group = Xguard_stats.Counter.Group
module Trace = Xguard_trace.Trace
module Obs = Xguard_obs.Obs
module Coverage = Xguard_trace.Coverage

type variant = Baseline | Xg_ready

exception Protocol_error of string

type stable = St_s | St_e | St_o | St_m

(* Base of an open Get transaction: what the cache still holds while the
   request is in flight.  Forwarded requests race with the transaction and
   downgrade the base. *)
type base = Base_none | Base_sharer | Base_owner

type get_tbe = {
  kind : Msg.get_kind;
  mutable base : base;
  mutable peers_left : int;
  mutable mem_data : Data.t option;
  mutable peer_data : Data.t option;
  mutable peer_data_count : int;
  mutable shared_seen : bool;
  access : Access.t;
  on_done : Data.t -> unit;
}

type lstate =
  | Stable of stable
  | Get_pending  (* details live in the TBE *)
  | Put_pending of { mutable lost_ownership : bool }

type line = { mutable st : lstate; mutable data : Data.t; mutable dirty : bool }

type t = {
  engine : Engine.t;
  net : Net.t;
  name : string;
  node : Node.t;
  directory : Addr.t -> Node.t;
  variant : variant;
  hit_latency : int;
  array : line Cache_array.t;
  tbes : get_tbe Tbe_table.t;
  mutable peer_count : int;
  mutable pending_puts : int;
  stats : Group.t;
  sid : Group.id array; (* adopted hot stat counters, in [hot_stats] order *)
  coverage : Group.t;
  covm : Coverage.matrix;
}

(* Hot per-event stat counters: a vocabulary hashed once per process, adopted
   by each instance's fresh stats group (no name is hashed per build). *)
let hot_stats =
  Group.vocab
    [| "load_hit"; "store_hit"; "miss"; "get_complete"; "writeback_complete"; "silent_s_eviction" |]

let name t = t.name
let node t = t.node
let stats t = t.stats
let coverage t = t.coverage
let outstanding t = Tbe_table.count t.tbes + t.pending_puts
let set_peer_count t n = t.peer_count <- n

(* State/event indices into [coverage_space]'s lists (PR 4). *)
let state_names = [| "I"; "IS"; "IM"; "SM"; "OM"; "S"; "E"; "O"; "M"; "MI"; "II" |]

let state_idx line tbe =
  match (line, tbe) with
  | _, Some g -> (
      match (g.kind, g.base) with
      | Msg.Get_m, Base_owner -> 4 (* OM *)
      | Msg.Get_m, Base_sharer -> 3 (* SM *)
      | Msg.Get_m, Base_none -> 2 (* IM *)
      | (Msg.Get_s | Msg.Get_s_only), _ -> 1 (* IS *))
  | Some { st = Stable s; _ }, None -> (
      match s with St_s -> 5 | St_e -> 6 | St_o -> 7 | St_m -> 8)
  | Some { st = Put_pending { lost_ownership = false }; _ }, None -> 9 (* MI *)
  | Some { st = Put_pending { lost_ownership = true }; _ }, None -> 10 (* II *)
  | Some { st = Get_pending; _ }, None -> 1 (* IS; unreachable: TBE exists *)
  | None, None -> 0 (* I *)

let event_names =
  [|
    "Load"; "Store"; "Replacement_S"; "Replacement_owned"; "Fwd_GetS"; "Fwd_GetS_only";
    "Fwd_GetM"; "MemData"; "PeerAck"; "PeerData"; "WbAck"; "WbNack";
  |]

let e_load = 0
let e_store = 1
let e_repl_s = 2
let e_repl_owned = 3
let e_mem_data = 7
let e_peer_ack = 8
let e_peer_data = 9
let e_wb_ack = 10
let e_wb_nack = 11
let event_of_fwd = function Msg.Get_s -> 4 | Msg.Get_s_only -> 5 | Msg.Get_m -> 6

let visit t addr event =
  let line = Cache_array.find t.array addr in
  let tbe = Tbe_table.find t.tbes addr in
  let state = state_idx line tbe in
  Coverage.hit t.covm ~state ~event;
  match Obs.trace () with
  | Some tr ->
      Trace.transition tr ~cycle:(Engine.now t.engine) ~controller:t.name
        ~addr:(Addr.to_int addr) ~state:state_names.(state) ~event:event_names.(event) ()
  | None -> ()

let coverage_space =
  let states = [ "I"; "IS"; "IM"; "SM"; "OM"; "S"; "E"; "O"; "M"; "MI"; "II" ] in
  let transient = [ "IS"; "IM"; "SM"; "OM" ] in
  let possible state event =
    match event with
    | "Load" | "Store" -> List.mem state [ "I"; "S"; "E"; "O"; "M" ]
    | "Replacement_S" -> state = "S"
    | "Replacement_owned" -> List.mem state [ "E"; "O"; "M" ]
    | "Fwd_GetS" | "Fwd_GetS_only" | "Fwd_GetM" -> true
    | "MemData" | "PeerAck" | "PeerData" -> List.mem state transient
    | "WbAck" -> state = "MI"
    | "WbNack" -> state = "II"
    | _ -> false
  in
  Xguard_trace.Coverage.space ~name:"hammer.l1l2" ~states
    ~events:
      [ "Load"; "Store"; "Replacement_S"; "Replacement_owned"; "Fwd_GetS"; "Fwd_GetS_only";
        "Fwd_GetM"; "MemData"; "PeerAck"; "PeerData"; "WbAck"; "WbNack" ]
    ~possible ()

let send t ~dst body addr =
  let msg = { Msg.addr; body } in
  Net.send t.net ~src:t.node ~dst ~size:(Msg.size msg) msg

let error t what =
  Group.incr t.stats ("error." ^ what);
  match t.variant with
  | Baseline -> raise (Protocol_error (t.name ^ ": " ^ what))
  | Xg_ready -> ()

let complete t ~on_done value =
  Engine.schedule t.engine ~delay:t.hit_latency
    ~tag:(Engine.pack_tag ~ctrl:(Node.id t.node) ~addr:(-1))
    (fun () -> on_done value)

(* ------- CPU side ------- *)

let start_eviction t addr (line : line) stable =
  match stable with
  | St_s ->
      (* Silent eviction of shared blocks (the paper relies on this: XG does
         not pass PutS to this host). *)
      Group.incr_id t.stats t.sid.(5) (* silent_s_eviction *);
      visit t addr e_repl_s;
      Cache_array.remove t.array addr
  | St_e | St_o | St_m ->
      visit t addr e_repl_owned;
      line.st <- Put_pending { lost_ownership = false };
      t.pending_puts <- t.pending_puts + 1;
      send t ~dst:(t.directory addr) Msg.Put addr

let alloc_get t addr kind ~base (access : Access.t) ~on_done =
  let tbe =
    {
      kind;
      base;
      peers_left = t.peer_count;
      mem_data = None;
      peer_data = None;
      peer_data_count = 0;
      shared_seen = false;
      access;
      on_done;
    }
  in
  match Tbe_table.alloc t.tbes addr tbe with
  | `Ok ->
      (match Obs.trace () with
      | Some tr ->
          Trace.tbe_alloc tr ~cycle:(Engine.now t.engine) ~controller:t.name
            ~addr:(Addr.to_int addr)
      | None -> ());
      send t ~dst:(t.directory addr) (Msg.Get { kind }) addr;
      true
  | `Full | `Busy -> false

let issue t (access : Access.t) ~on_done =
  let addr = access.Access.addr in
  match Cache_array.find t.array addr with
  | Some line -> (
      Cache_array.touch t.array addr;
      match (line.st, access.Access.op) with
      | Stable (St_m | St_e | St_o | St_s), Access.Load ->
          Group.incr_id t.stats t.sid.(0) (* load_hit *);
          visit t addr e_load;
          complete t ~on_done line.data;
          true
      | Stable St_m, Access.Store d ->
          Group.incr_id t.stats t.sid.(1) (* store_hit *);
          visit t addr e_store;
          line.data <- d;
          complete t ~on_done d;
          true
      | Stable St_e, Access.Store d ->
          (* Silent E -> M upgrade. *)
          Group.incr_id t.stats t.sid.(1) (* store_hit *);
          visit t addr e_store;
          line.st <- Stable St_m;
          line.dirty <- true;
          line.data <- d;
          complete t ~on_done d;
          true
      | Stable St_o, Access.Store _ ->
          visit t addr e_store;
          if alloc_get t addr Msg.Get_m ~base:Base_owner access ~on_done then begin
            line.st <- Get_pending;
            true
          end
          else false
      | Stable St_s, Access.Store _ ->
          visit t addr e_store;
          if alloc_get t addr Msg.Get_m ~base:Base_sharer access ~on_done then begin
            line.st <- Get_pending;
            true
          end
          else false
      | (Get_pending | Put_pending _), _ -> false)
  | None ->
      if not (Cache_array.has_room t.array addr) then begin
        (match Cache_array.victim t.array addr with
        | Some (victim_addr, victim_line) -> (
            match victim_line.st with
            | Stable s -> start_eviction t victim_addr victim_line s
            | Get_pending | Put_pending _ -> ())
        | None -> ());
        false
      end
      else begin
        let kind =
          match access.Access.op with Access.Load -> Msg.Get_s | Access.Store _ -> Msg.Get_m
        in
        visit t addr (match kind with Msg.Get_s -> e_load | _ -> e_store);
        Group.incr_id t.stats t.sid.(2) (* miss *);
        if alloc_get t addr kind ~base:Base_none access ~on_done then begin
          Cache_array.insert t.array addr { st = Get_pending; data = Data.zero; dirty = false };
          true
        end
        else false
      end

let cpu_port t = { Access.issue = (fun access ~on_done -> issue t access ~on_done) }

(* ------- Forwarded requests ------- *)

let respond_data t ~requestor addr (line : line) =
  send t ~dst:requestor (Msg.Peer_data { data = line.data; dirty = line.dirty }) addr

let handle_fwd t addr (kind : Msg.get_kind) ~requestor =
  visit t addr (event_of_fwd kind);
  match Tbe_table.find t.tbes addr with
  | Some tbe -> (
      let line = Cache_array.find t.array addr in
      match (tbe.base, kind) with
      | Base_owner, Msg.Get_m ->
          (match line with
          | Some l -> respond_data t ~requestor addr l
          | None -> error t "owner base without a line");
          tbe.base <- Base_none
      | Base_owner, (Msg.Get_s | Msg.Get_s_only) -> (
          match line with
          | Some l -> respond_data t ~requestor addr l
          | None -> error t "owner base without a line")
      | Base_sharer, Msg.Get_m ->
          send t ~dst:requestor (Msg.Peer_ack { shared = false }) addr;
          tbe.base <- Base_none
      | Base_sharer, (Msg.Get_s | Msg.Get_s_only) ->
          send t ~dst:requestor (Msg.Peer_ack { shared = true }) addr
      | Base_none, _ -> send t ~dst:requestor (Msg.Peer_ack { shared = false }) addr)
  | None -> (
      match Cache_array.find t.array addr with
      | None -> send t ~dst:requestor (Msg.Peer_ack { shared = false }) addr
      | Some line -> (
          match (line.st, kind) with
          | Stable (St_m | St_e | St_o), Msg.Get_m ->
              respond_data t ~requestor addr line;
              Cache_array.remove t.array addr
          | Stable St_m, (Msg.Get_s | Msg.Get_s_only) ->
              respond_data t ~requestor addr line;
              line.st <- Stable St_o
          | Stable St_e, (Msg.Get_s | Msg.Get_s_only) ->
              respond_data t ~requestor addr line;
              line.st <- Stable St_o
          | Stable St_o, (Msg.Get_s | Msg.Get_s_only) -> respond_data t ~requestor addr line
          | Stable St_s, Msg.Get_m ->
              send t ~dst:requestor (Msg.Peer_ack { shared = false }) addr;
              Cache_array.remove t.array addr
          | Stable St_s, (Msg.Get_s | Msg.Get_s_only) ->
              send t ~dst:requestor (Msg.Peer_ack { shared = true }) addr
          | Put_pending { lost_ownership = true }, _ ->
              (* II: ownership already forwarded away; our copy is stale. *)
              send t ~dst:requestor (Msg.Peer_ack { shared = false }) addr
          | Put_pending p, Msg.Get_m ->
              respond_data t ~requestor addr line;
              p.lost_ownership <- true
          | Put_pending _, (Msg.Get_s | Msg.Get_s_only) -> respond_data t ~requestor addr line
          | Get_pending, _ ->
              (* A Get_pending line always has a TBE; reaching here means state
                 tracking broke. *)
              error t "Get_pending line without TBE";
              send t ~dst:requestor (Msg.Peer_ack { shared = false }) addr))

(* ------- Response collection ------- *)

let try_complete t addr (tbe : get_tbe) =
  if tbe.peers_left = 0 && tbe.mem_data <> None then begin
    let line =
      match Cache_array.find t.array addr with
      | Some l -> l
      | None -> raise (Protocol_error (t.name ^ ": completing a get with no line"))
    in
    (match t.variant with
    | Baseline ->
        if tbe.peer_data_count > 1 then
          raise (Protocol_error (t.name ^ ": multiple data responses in baseline mode"))
    | Xg_ready -> if tbe.peer_data_count > 1 then Group.incr t.stats "error.multiple_data");
    let received =
      match tbe.peer_data with
      | Some d -> d
      | None -> ( match tbe.mem_data with Some d -> d | None -> assert false)
    in
    let final_value, final_state, exclusive =
      match tbe.kind with
      | Msg.Get_m ->
          let stored =
            match tbe.access.Access.op with
            | Access.Store d -> d
            | Access.Load ->
                (* A Get_m for a load only happens for the XG port; the CPU
                   controller upgrades only on stores. *)
                if tbe.base = Base_owner then line.data else received
          in
          (stored, St_m, true)
      | Msg.Get_s ->
          if tbe.peer_data <> None || tbe.shared_seen then (received, St_s, false)
          else (received, St_e, true)
      | Msg.Get_s_only -> (received, St_s, false)
    in
    line.data <- final_value;
    line.dirty <- (final_state = St_m);
    line.st <- Stable final_state;
    Tbe_table.dealloc t.tbes addr;
    (match Obs.trace () with
    | Some tr ->
        Trace.tbe_free tr ~cycle:(Engine.now t.engine) ~controller:t.name
          ~addr:(Addr.to_int addr)
    | None -> ());
    send t ~dst:(t.directory addr) (Msg.Unblock { exclusive }) addr;
    Group.incr_id t.stats t.sid.(3) (* get_complete *);
    complete t ~on_done:tbe.on_done final_value
  end

let handle_response t addr (body : Msg.body) =
  match Tbe_table.find t.tbes addr with
  | None -> error t "response without open transaction"
  | Some tbe -> (
      (match body with
      | Msg.Mem_data { data } ->
          visit t addr e_mem_data;
          if tbe.mem_data <> None then error t "duplicate memory data"
          else tbe.mem_data <- Some data
      | Msg.Peer_ack { shared } ->
          visit t addr e_peer_ack;
          tbe.peers_left <- tbe.peers_left - 1;
          if shared then tbe.shared_seen <- true
      | Msg.Peer_data { data; dirty = _ } ->
          visit t addr e_peer_data;
          tbe.peers_left <- tbe.peers_left - 1;
          tbe.peer_data_count <- tbe.peer_data_count + 1;
          if tbe.peer_data = None then tbe.peer_data <- Some data
      | _ -> assert false);
      if tbe.peers_left < 0 then error t "more peer responses than peers"
      else try_complete t addr tbe)

(* ------- Writeback responses ------- *)

let handle_wb_ack t addr =
  match Cache_array.find t.array addr with
  | Some ({ st = Put_pending { lost_ownership = false }; _ } as line) ->
      visit t addr e_wb_ack;
      send t ~dst:(t.directory addr) (Msg.Wb_data { data = line.data; dirty = line.dirty }) addr;
      Cache_array.remove t.array addr;
      t.pending_puts <- t.pending_puts - 1;
      Group.incr_id t.stats t.sid.(4) (* writeback_complete *)
  | Some { st = Put_pending { lost_ownership = true }; _ } ->
      (* The directory believed us owner after all; it is waiting for data.
         Our data is stale (the new owner has fresher data), but the memory
         value will be overridden by the true owner's eventual writeback.
         This cannot happen with a correct directory: ownership moved, so the
         directory Nacks.  Treat as a protocol error. *)
      error t "WbAck after ownership was forwarded away"
  | Some _ | None -> error t "WbAck with no pending writeback"

let handle_wb_nack t addr =
  match Cache_array.find t.array addr with
  | Some { st = Put_pending { lost_ownership = true }; _ } ->
      visit t addr e_wb_nack;
      Cache_array.remove t.array addr;
      t.pending_puts <- t.pending_puts - 1;
      Group.incr t.stats "writeback_nacked"
  | Some ({ st = Put_pending { lost_ownership = false }; _ } as _line) ->
      (* Paper modification: sink unexpected Nacks and report an error rather
         than wedging.  Free the line to preserve liveness. *)
      error t "unexpected WbNack while still owner";
      Group.incr t.stats "unexpected_nack_sunk";
      Cache_array.remove t.array addr;
      t.pending_puts <- t.pending_puts - 1
  | Some _ | None ->
      error t "WbNack with no pending writeback";
      Group.incr t.stats "unexpected_nack_sunk"

let deliver t (msg : Msg.t) =
  let addr = msg.Msg.addr in
  match msg.Msg.body with
  | Msg.Fwd { kind; requestor } -> handle_fwd t addr kind ~requestor
  | Msg.Mem_data _ | Msg.Peer_ack _ | Msg.Peer_data _ -> handle_response t addr msg.Msg.body
  | Msg.Wb_ack -> handle_wb_ack t addr
  | Msg.Wb_nack -> handle_wb_nack t addr
  | Msg.Get _ | Msg.Put | Msg.Wb_data _ | Msg.Unblock _ ->
      error t "directory-bound message delivered to a cache"

let probe t addr =
  match (Cache_array.find t.array addr, Tbe_table.find t.tbes addr) with
  | None, None -> `I
  | _, Some _ -> `Transient
  | Some { st = Stable St_s; _ }, None -> `S
  | Some { st = Stable St_e; _ }, None -> `E
  | Some { st = Stable St_o; _ }, None -> `O
  | Some { st = Stable St_m; _ }, None -> `M
  | Some { st = Get_pending | Put_pending _; _ }, None -> `Transient

(* ---- model-checker support ---- *)

let check_each t f =
  Cache_array.iter
    (fun addr line ->
      f addr
        (match line.st with
        | Stable s when not (Tbe_table.mem t.tbes addr) -> (
            match s with St_s -> `S | St_e -> `E | St_o -> `O | St_m -> `M)
        | _ -> `T)
        line.data)
    t.array

let check_lines t =
  let acc = ref [] in
  check_each t (fun addr cls data -> acc := (addr, cls, data) :: !acc);
  List.sort (fun (a, _, _) (b, _, _) -> Addr.compare a b) !acc

let stable_name = function St_s -> 'S' | St_e -> 'E' | St_o -> 'O' | St_m -> 'M'

let check_fingerprint t buf =
  Buffer.add_string buf "l1l2[";
  Buffer.add_string buf t.name;
  Buffer.add_char buf ']';
  Cache_array.to_list t.array
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)
  |> List.iter (fun (addr, line) ->
         Fp.key buf 'a' (Addr.to_int addr);
         Buffer.add_char buf ':';
         (match line.st with
         | Stable s -> Buffer.add_char buf (stable_name s)
         | Get_pending -> Buffer.add_char buf 'g'
         | Put_pending { lost_ownership } ->
             Buffer.add_char buf (if lost_ownership then 'i' else 'p'));
         Fp.field_int buf (line.data : Data.t);
         Fp.field_bool buf line.dirty;
         Buffer.add_char buf ';');
  Tbe_table.to_list t.tbes
  |> List.iter (fun (addr, g) ->
         Fp.key buf 't' (Addr.to_int addr);
         Fp.field buf (Msg.get_kind_to_string g.kind);
         Fp.field_int buf (match g.base with Base_none -> 0 | Base_sharer -> 1 | Base_owner -> 2);
         Fp.field_int buf g.peers_left;
         Fp.field_opt buf g.mem_data;
         Fp.field_opt buf g.peer_data;
         Fp.field_bool buf g.shared_seen;
         Buffer.add_char buf ':';
         Access.add_text buf g.access;
         Buffer.add_char buf ';')

let create ~engine ~net ~name ~node ~directory ~variant ~sets ~ways ?(hit_latency = 2)
    ?(tbe_capacity = 16) () =
  let stats = Group.create (name ^ ".stats") in
  let coverage = Group.create (name ^ ".coverage") in
  let t =
    {
      engine;
      net;
      name;
      node;
      directory;
      variant;
      hit_latency;
      array = Cache_array.create ~sets ~ways ();
      tbes = Tbe_table.create ~capacity:tbe_capacity ();
      peer_count = 0;
      pending_puts = 0;
      stats;
      sid = Group.adopt stats hot_stats;
      coverage;
      covm = Coverage.intern_matrix coverage_space coverage;
    }
  in
  Net.register net node (fun ~src:_ msg -> deliver t msg);
  t
