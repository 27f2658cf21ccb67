module Engine = Xguard_sim.Engine
module Group = Xguard_stats.Counter.Group
module Trace = Xguard_trace.Trace
module Obs = Xguard_obs.Obs
module Coverage = Xguard_trace.Coverage

exception Protocol_error of string

type stable = St_s | St_e | St_m

(* Get transactions in flight.  [base_valid] distinguishes SM (upgrade keeping
   a valid S copy) from IM; IS_I is IS with [invalidated] set. *)
type get_tbe = {
  kind : Msg.get_kind;
  mutable base_valid : bool;
  mutable invalidated : bool;
  mutable data : Data.t option;
  mutable grant : Msg.grant option;
  mutable acks_expected : int option;
  mutable acks_got : int;
  access : Access.t;
  on_done : Data.t -> unit;
}

type lstate =
  | Stable of stable
  | Get_pending
  | M_i of { mutable lost_ownership : bool }  (* PutM sent *)
  | Si_wb  (* PutS sent: SINK_WB_ACK *)

type line = { mutable st : lstate; mutable data : Data.t; mutable dirty : bool }

type t = {
  engine : Engine.t;
  net : Net.t;
  name : string;
  node : Node.t;
  l2 : Node.t;
  hit_latency : int;
  array : line Cache_array.t;
  tbes : get_tbe Tbe_table.t;
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
    [| "load_hit"; "store_hit"; "miss"; "get_complete"; "writeback_complete" |]

let name t = t.name
let node t = t.node
let stats t = t.stats
let coverage t = t.coverage
let outstanding t = Tbe_table.count t.tbes + t.pending_puts

let send t ~dst body addr =
  let msg = { Msg.addr; body } in
  Net.send t.net ~src:t.node ~dst ~size:(Msg.size msg) msg

(* State/event indices into [coverage_space]'s lists (PR 4). *)
let state_names = [| "I"; "IS"; "IS_I"; "IM"; "SM"; "S"; "E"; "M"; "M_I"; "SINK_WB_ACK" |]

let state_idx t addr =
  match (Cache_array.find t.array addr, Tbe_table.find t.tbes addr) with
  | _, Some g -> (
      match (g.kind, g.base_valid, g.invalidated) with
      | Msg.Get_m, true, _ -> 4 (* SM *)
      | Msg.Get_m, false, _ -> 3 (* IM *)
      | _, _, true -> 2 (* IS_I *)
      | _, _, false -> 1 (* IS *))
  | Some { st = Stable St_s; _ }, None -> 5 (* S *)
  | Some { st = Stable St_e; _ }, None -> 6 (* E *)
  | Some { st = Stable St_m; _ }, None -> 7 (* M *)
  | Some { st = M_i _; _ }, None -> 8 (* M_I *)
  | Some { st = Si_wb; _ }, None -> 9 (* SINK_WB_ACK *)
  | Some { st = Get_pending; _ }, None -> 1 (* IS *)
  | None, None -> 0 (* I *)

let event_names =
  [|
    "Load"; "Store"; "Replacement"; "Inv"; "Recall"; "Fwd_GetS"; "Fwd_GetS_only";
    "Fwd_GetM"; "WbAck"; "L2Data"; "OwnerData"; "InvAck";
  |]

let e_load = 0
let e_store = 1
let e_repl = 2
let e_inv = 3
let e_recall = 4
let e_wb_ack = 8
let e_l2_data = 9
let e_owner_data = 10
let e_inv_ack = 11
let event_of_fwd = function Msg.Get_s -> 5 | Msg.Get_s_only -> 6 | Msg.Get_m -> 7

let visit t addr event =
  let state = state_idx t addr in
  Coverage.hit t.covm ~state ~event;
  match Obs.trace () with
  | Some tr ->
      Trace.transition tr ~cycle:(Engine.now t.engine) ~controller:t.name
        ~addr:(Addr.to_int addr) ~state:state_names.(state) ~event:event_names.(event) ()
  | None -> ()

let coverage_space =
  let states = [ "I"; "IS"; "IS_I"; "IM"; "SM"; "S"; "E"; "M"; "M_I"; "SINK_WB_ACK" ] in
  let transient = [ "IS"; "IS_I"; "IM"; "SM" ] in
  let possible state event =
    match event with
    | "Load" | "Store" -> List.mem state [ "I"; "S"; "E"; "M" ]
    | "Replacement" -> List.mem state [ "S"; "E"; "M" ]
    | "Inv" -> not (List.mem state [ "E"; "M" ]) (* owners are Recalled, never Inv'd *)
    | "Recall" -> true
    | "Fwd_GetS" | "Fwd_GetS_only" | "Fwd_GetM" -> List.mem state [ "E"; "M"; "M_I" ]
    | "WbAck" -> List.mem state [ "M_I"; "SINK_WB_ACK" ]
    | "L2Data" | "OwnerData" | "InvAck" -> List.mem state transient
    | _ -> false
  in
  Xguard_trace.Coverage.space ~name:"mesi.l1" ~states
    ~events:
      [ "Load"; "Store"; "Replacement"; "Inv"; "Recall"; "Fwd_GetS"; "Fwd_GetS_only";
        "Fwd_GetM"; "WbAck"; "L2Data"; "OwnerData"; "InvAck" ]
    ~possible ()

let complete t ~on_done value =
  Engine.schedule t.engine ~delay:t.hit_latency
    ~tag:(Engine.pack_tag ~ctrl:(Node.id t.node) ~addr:(-1))
    (fun () -> on_done value)

(* ------- CPU side ------- *)

let start_eviction t addr (line : line) stable =
  visit t addr e_repl;
  (match stable with
  | St_s ->
      line.st <- Si_wb;
      send t ~dst:t.l2 Msg.Put_s addr
  | St_e | St_m ->
      line.st <- M_i { lost_ownership = false };
      send t ~dst:t.l2 (Msg.Put_m { data = line.data; dirty = line.dirty }) addr);
  t.pending_puts <- t.pending_puts + 1

let alloc_get t addr kind ~base_valid (access : Access.t) ~on_done =
  let tbe =
    {
      kind;
      base_valid;
      invalidated = false;
      data = None;
      grant = None;
      acks_expected = None;
      acks_got = 0;
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
      send t ~dst:t.l2 (Msg.Get { kind }) addr;
      true
  | `Full | `Busy -> false

let issue t (access : Access.t) ~on_done =
  let addr = access.Access.addr in
  match Cache_array.find t.array addr with
  | Some line -> (
      Cache_array.touch t.array addr;
      match (line.st, access.Access.op) with
      | Stable _, Access.Load ->
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
          Group.incr_id t.stats t.sid.(1) (* store_hit *);
          visit t addr e_store;
          line.st <- Stable St_m;
          line.dirty <- true;
          line.data <- d;
          complete t ~on_done d;
          true
      | Stable St_s, Access.Store _ ->
          visit t addr e_store;
          if alloc_get t addr Msg.Get_m ~base_valid:true access ~on_done then begin
            line.st <- Get_pending;
            true
          end
          else false
      | (Get_pending | M_i _ | Si_wb), _ -> false)
  | None ->
      if not (Cache_array.has_room t.array addr) then begin
        (match Cache_array.victim t.array addr with
        | Some (victim_addr, victim_line) -> (
            match victim_line.st with
            | Stable s -> start_eviction t victim_addr victim_line s
            | Get_pending | M_i _ | Si_wb -> ())
        | None -> ());
        false
      end
      else begin
        let kind =
          match access.Access.op with Access.Load -> Msg.Get_s | Access.Store _ -> Msg.Get_m
        in
        visit t addr (match access.Access.op with Access.Load -> e_load | _ -> e_store);
        Group.incr_id t.stats t.sid.(2) (* miss *);
        if alloc_get t addr kind ~base_valid:false access ~on_done then begin
          Cache_array.insert t.array addr { st = Get_pending; data = Data.zero; dirty = false };
          true
        end
        else false
      end

let cpu_port t = { Access.issue = (fun access ~on_done -> issue t access ~on_done) }

(* ------- Grant collection ------- *)

let try_complete t addr (tbe : get_tbe) =
  match (tbe.data, tbe.grant, tbe.acks_expected) with
  | Some received, Some grant, Some expected when tbe.acks_got >= expected ->
      if tbe.acks_got > expected then
        raise (Protocol_error (t.name ^ ": more invalidation acks than announced"));
      let line =
        match Cache_array.find t.array addr with
        | Some l -> l
        | None -> raise (Protocol_error (t.name ^ ": completing a get with no line"))
      in
      Tbe_table.dealloc t.tbes addr;
      (match Obs.trace () with
      | Some tr ->
          Trace.tbe_free tr ~cycle:(Engine.now t.engine) ~controller:t.name
            ~addr:(Addr.to_int addr)
      | None -> ());
      send t ~dst:t.l2 Msg.Unblock addr;
      Group.incr_id t.stats t.sid.(3) (* get_complete *);
      if tbe.invalidated then begin
        (* IS_I: use the value once, do not cache it. *)
        Group.incr t.stats "is_i_single_use";
        Cache_array.remove t.array addr;
        complete t ~on_done:tbe.on_done received
      end
      else begin
        let final_value, final_state =
          match (tbe.access.Access.op, grant) with
          | Access.Load, Msg.Grant_s -> (received, St_s)
          | Access.Load, Msg.Grant_e -> (received, St_e)
          | Access.Load, Msg.Grant_m -> (received, St_m)
          | Access.Store d, (Msg.Grant_m | Msg.Grant_e) -> (d, St_m)
          | Access.Store _, Msg.Grant_s ->
              raise (Protocol_error (t.name ^ ": shared grant for a store"))
        in
        line.data <- final_value;
        line.dirty <- (final_state = St_m);
        line.st <- Stable final_state;
        complete t ~on_done:tbe.on_done final_value
      end
  | _ -> ()

let record_grant t addr (tbe : get_tbe) ~data ~grant ~acks =
  if tbe.data <> None then raise (Protocol_error (t.name ^ ": duplicate data grant"));
  tbe.data <- Some data;
  tbe.grant <- Some grant;
  tbe.acks_expected <- Some acks;
  try_complete t addr tbe

(* ------- Host-side requests ------- *)

let handle_inv t addr ~reply_to =
  visit t addr e_inv;
  (match Tbe_table.find t.tbes addr with
  | Some tbe ->
      (* Invalidation racing an open request: drop the base copy.  For a
         pending GetS this is the IS -> IS_I transition. *)
      if tbe.base_valid then tbe.base_valid <- false
      else if tbe.kind <> Msg.Get_m then tbe.invalidated <- true
  | None -> (
      match Cache_array.find t.array addr with
      | Some { st = Stable St_s; _ } -> Cache_array.remove t.array addr
      | Some { st = Si_wb; _ } -> () (* the racing PutS will be sunk by the L2 *)
      | Some { st = Stable (St_e | St_m); _ } ->
          (* The L2 Recalls owners; a plain Inv to an owner is a protocol
             break. *)
          raise (Protocol_error (t.name ^ ": Inv received while owner"))
      | Some { st = Get_pending | M_i _; _ } | None -> ()));
  send t ~dst:reply_to Msg.Inv_ack addr

let handle_recall t addr =
  visit t addr e_recall;
  match Cache_array.find t.array addr with
  | Some ({ st = Stable (St_e | St_m); _ } as line) ->
      send t ~dst:t.l2 (Msg.Recall_data { data = line.data; dirty = line.dirty }) addr;
      Cache_array.remove t.array addr
  | Some ({ st = M_i p; _ } as line) ->
      send t ~dst:t.l2 (Msg.Recall_data { data = line.data; dirty = line.dirty }) addr;
      p.lost_ownership <- true
  | Some _ | None ->
      (* Only a confused holder reaches this; answer so the L2 can proceed. *)
      Group.incr t.stats "recall_without_ownership";
      send t ~dst:t.l2 Msg.Recall_ack addr

let handle_fwd t addr (kind : Msg.get_kind) ~requestor =
  visit t addr (event_of_fwd kind);
  let respond (line : line) =
    match kind with
    | Msg.Get_m ->
        send t ~dst:requestor
          (Msg.Owner_data { data = line.data; dirty = line.dirty; grant = Msg.Grant_m })
          addr
    | Msg.Get_s | Msg.Get_s_only ->
        send t ~dst:requestor
          (Msg.Owner_data { data = line.data; dirty = false; grant = Msg.Grant_s })
          addr;
        send t ~dst:t.l2 (Msg.Copyback { data = line.data; dirty = line.dirty }) addr
  in
  match Cache_array.find t.array addr with
  | Some ({ st = Stable (St_e | St_m); _ } as line) -> (
      respond line;
      match kind with
      | Msg.Get_m -> Cache_array.remove t.array addr
      | Msg.Get_s | Msg.Get_s_only ->
          line.st <- Stable St_s;
          line.dirty <- false)
  | Some ({ st = M_i p; _ } as line) ->
      respond line;
      if kind = Msg.Get_m then p.lost_ownership <- true
  | Some _ | None -> raise (Protocol_error (t.name ^ ": forwarded request but not owner"))

let handle_wb_ack t addr =
  match Cache_array.find t.array addr with
  | Some { st = M_i _; _ } | Some { st = Si_wb; _ } ->
      visit t addr e_wb_ack;
      Cache_array.remove t.array addr;
      t.pending_puts <- t.pending_puts - 1;
      Group.incr_id t.stats t.sid.(4) (* writeback_complete *)
  | Some _ | None -> raise (Protocol_error (t.name ^ ": WbAck with no writeback pending"))

let deliver t (msg : Msg.t) =
  let addr = msg.Msg.addr in
  match msg.Msg.body with
  | Msg.L2_data { data; grant; acks } -> (
      visit t addr e_l2_data;
      match Tbe_table.find t.tbes addr with
      | Some tbe -> record_grant t addr tbe ~data ~grant ~acks
      | None -> raise (Protocol_error (t.name ^ ": data grant without transaction")))
  | Msg.Owner_data { data; dirty = _; grant } -> (
      visit t addr e_owner_data;
      match Tbe_table.find t.tbes addr with
      | Some tbe -> record_grant t addr tbe ~data ~grant ~acks:0
      | None -> raise (Protocol_error (t.name ^ ": owner data without transaction")))
  | Msg.Inv_ack -> (
      visit t addr e_inv_ack;
      match Tbe_table.find t.tbes addr with
      | Some tbe ->
          tbe.acks_got <- tbe.acks_got + 1;
          try_complete t addr tbe
      | None -> raise (Protocol_error (t.name ^ ": InvAck without transaction")))
  | Msg.Inv { reply_to } -> handle_inv t addr ~reply_to
  | Msg.Recall -> handle_recall t addr
  | Msg.Fwd { kind; requestor } -> handle_fwd t addr kind ~requestor
  | Msg.Wb_ack -> handle_wb_ack t addr
  | Msg.Get _ | Msg.Put_s | Msg.Put_m _ | Msg.Unblock | Msg.Recall_data _ | Msg.Recall_ack
  | Msg.Copyback _ | Msg.Fetch | Msg.Mem_data _ | Msg.Mem_wb _ | Msg.Mem_wb_ack ->
      raise (Protocol_error (t.name ^ ": message not addressed to an L1"))

let probe t addr =
  match (Cache_array.find t.array addr, Tbe_table.find t.tbes addr) with
  | None, None -> `I
  | _, Some _ -> `Transient
  | Some { st = Stable St_s; _ }, None -> `S
  | Some { st = Stable St_e; _ }, None -> `E
  | Some { st = Stable St_m; _ }, None -> `M
  | Some { st = Get_pending | M_i _ | Si_wb; _ }, None -> `Transient

(* ---- model-checker support ---- *)

let check_each t f =
  Cache_array.iter
    (fun addr line ->
      f addr
        (match line.st with
        | Stable s when not (Tbe_table.mem t.tbes addr) -> (
            match s with St_s -> `S | St_e -> `E | St_m -> `M)
        | _ -> `T)
        line.data)
    t.array

let check_lines t =
  let acc = ref [] in
  check_each t (fun addr cls data -> acc := (addr, cls, data) :: !acc);
  List.sort (fun (a, _, _) (b, _, _) -> Addr.compare a b) !acc

let check_fingerprint t buf =
  Buffer.add_string buf "l1[";
  Buffer.add_string buf t.name;
  Buffer.add_char buf ']';
  Cache_array.to_list t.array
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)
  |> List.iter (fun (addr, line) ->
         Fp.key buf 'a' (Addr.to_int addr);
         Buffer.add_char buf ':';
         (match line.st with
         | Stable St_s -> Buffer.add_char buf 'S'
         | Stable St_e -> Buffer.add_char buf 'E'
         | Stable St_m -> Buffer.add_char buf 'M'
         | Get_pending -> Buffer.add_char buf 'g'
         | M_i { lost_ownership } -> Buffer.add_char buf (if lost_ownership then 'i' else 'm')
         | Si_wb -> Buffer.add_char buf 's');
         Fp.field_int buf (line.data : Data.t);
         Fp.field_bool buf line.dirty;
         Buffer.add_char buf ';');
  Tbe_table.to_list t.tbes
  |> List.iter (fun (addr, g) ->
         Fp.key buf 't' (Addr.to_int addr);
         Fp.field buf (Msg.get_kind_to_string g.kind);
         Fp.field_bool buf g.base_valid;
         Fp.field_bool buf g.invalidated;
         Fp.field_opt buf g.data;
         Fp.field buf (match g.grant with None -> "-" | Some gr -> Msg.grant_to_string gr);
         Fp.field_opt buf g.acks_expected;
         Fp.field_int buf g.acks_got;
         Buffer.add_char buf ':';
         Access.add_text buf g.access;
         Buffer.add_char buf ';')

let create ~engine ~net ~name ~node ~l2 ~sets ~ways ?(hit_latency = 1) ?(tbe_capacity = 16)
    () =
  let stats = Group.create (name ^ ".stats") in
  let coverage = Group.create (name ^ ".coverage") in
  let t =
    {
      engine;
      net;
      name;
      node;
      l2;
      hit_latency;
      array = Cache_array.create ~sets ~ways ();
      tbes = Tbe_table.create ~capacity:tbe_capacity ();
      pending_puts = 0;
      stats;
      sid = Group.adopt stats hot_stats;
      coverage;
      covm = Coverage.intern_matrix coverage_space coverage;
    }
  in
  Net.register net node (fun ~src:_ msg -> deliver t msg);
  t
