module Engine = Xguard_sim.Engine
module Group = Xguard_stats.Counter.Group
module Xg_iface = Xguard_xg.Xg_iface
module Trace = Xguard_trace.Trace
module Obs = Xguard_obs.Obs
module Coverage = Xguard_trace.Coverage

type flavor = Mesi | Msi | Vi

type stable = St_m | St_e | St_s

type pend =
  | Get of { access : Access.t; on_done : Data.t -> unit }
  | Put  (** eviction in flight, waiting for WbAck *)

type line_state = Stable of stable | Busy of pend

type line = { mutable st : line_state; mutable data : Data.t }

type t = {
  engine : Engine.t;
  name : string;
  flavor : flavor;
  hit_latency : int;
  array : line Cache_array.t;
  lower : Lower_port.t;
  coverage : Group.t;
  covm : Coverage.matrix;
  mshr_limit : int;
  mutable pending_gets : int;
  mutable pending_evictions : int;
  mutable flushed : bool;  (* a device reset happened at least once (PR 8) *)
  (* Choice tag for hit-latency completion events (model checker);
     [Engine.no_tag] outside check mode. *)
  mutable check_tag : int;
}

module Spec = struct
  type state = M | E | S | I | B

  type event =
    | Load
    | Store
    | Replacement
    | Invalidate
    | Data_m_arrival
    | Data_e_arrival
    | Data_s_arrival
    | Wb_ack_arrival

  type outcome = Impossible | Entry of { action : string; next : state }

  (* Table 1 of the paper, verbatim. *)
  let mesi state event =
    match (state, event) with
    | M, Load -> Entry { action = "hit"; next = M }
    | M, Store -> Entry { action = "hit"; next = M }
    | M, Replacement -> Entry { action = "issue PutM"; next = B }
    | M, Invalidate -> Entry { action = "send Dirty WB"; next = I }
    | E, Load -> Entry { action = "hit"; next = E }
    | E, Store -> Entry { action = "hit"; next = M }
    | E, Replacement -> Entry { action = "issue PutE"; next = B }
    | E, Invalidate -> Entry { action = "send Clean WB"; next = I }
    | S, Load -> Entry { action = "hit"; next = S }
    | S, Store -> Entry { action = "issue GetM"; next = B }
    | S, Replacement -> Entry { action = "issue PutS"; next = B }
    | S, Invalidate -> Entry { action = "send InvAck"; next = I }
    | I, Load -> Entry { action = "issue GetS"; next = B }
    | I, Store -> Entry { action = "issue GetM"; next = B }
    | I, Replacement -> Impossible
    | I, Invalidate -> Entry { action = "send InvAck"; next = I }
    | B, Load -> Entry { action = "stall"; next = B }
    | B, Store -> Entry { action = "stall"; next = B }
    | B, Replacement -> Entry { action = "stall"; next = B }
    | B, Invalidate -> Entry { action = "send InvAck"; next = B }
    | B, Data_m_arrival -> Entry { action = "-"; next = M }
    | B, Data_e_arrival -> Entry { action = "-"; next = E }
    | B, Data_s_arrival -> Entry { action = "-"; next = S }
    | B, Wb_ack_arrival -> Entry { action = "-"; next = I }
    | (M | E | S | I), (Data_m_arrival | Data_e_arrival | Data_s_arrival | Wb_ack_arrival) ->
        Impossible

  let all_states = [ M; E; S; I; B ]

  let all_events =
    [
      Load;
      Store;
      Replacement;
      Invalidate;
      Data_m_arrival;
      Data_e_arrival;
      Data_s_arrival;
      Wb_ack_arrival;
    ]

  let state_to_string = function M -> "M" | E -> "E" | S -> "S" | I -> "I" | B -> "B"

  let event_to_string = function
    | Load -> "Load"
    | Store -> "Store"
    | Replacement -> "Replacement"
    | Invalidate -> "Invalidate"
    | Data_m_arrival -> "DataM"
    | Data_e_arrival -> "DataE"
    | Data_s_arrival -> "DataS"
    | Wb_ack_arrival -> "WB Ack"
end

let coverage_space =
  (* The {!visit} vocabulary differs from the table rendering in one place:
     WB Ack is counted as "WbAck" (keys may not contain spaces portably). *)
  let coverage_event = function
    | Spec.Wb_ack_arrival -> "WbAck"
    | e -> Spec.event_to_string e
  in
  let possible_pairs =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun e ->
            match Spec.mesi s e with
            | Spec.Impossible -> None
            | Spec.Entry _ -> Some (Spec.state_to_string s, coverage_event e))
          Spec.all_events)
      Spec.all_states
  in
  Xguard_trace.Coverage.space ~name:"accel.l1"
    ~states:(List.map Spec.state_to_string Spec.all_states)
    ~events:(List.map coverage_event Spec.all_events)
    ~possible:(fun s e -> List.mem (s, e) possible_pairs)
    ()

let create ~engine ~name ~flavor ~sets ~ways ?(hit_latency = 1) ?(mshr_limit = 16) ~lower () =
  let coverage = Group.create (name ^ ".coverage") in
  {
    engine;
    name;
    flavor;
    hit_latency;
    array = Cache_array.create ~sets ~ways ();
    lower;
    coverage;
    covm = Coverage.intern_matrix coverage_space coverage;
    mshr_limit;
    pending_gets = 0;
    pending_evictions = 0;
    flushed = false;
    check_tag = Engine.no_tag;
  }

let name t = t.name
let flavor t = t.flavor
let coverage t = t.coverage
let resident t = Cache_array.count t.array
let pending_evictions t = t.pending_evictions

(* State/event indices into [coverage_space]'s lists (PR 4). *)
let state_names = [| "M"; "E"; "S"; "I"; "B" |]
let s_m = 0
let s_e = 1
let s_s = 2
let s_i = 3
let s_b = 4

let event_names =
  [| "Load"; "Store"; "Replacement"; "Invalidate"; "DataM"; "DataE"; "DataS"; "WbAck" |]

let e_load = 0
let e_store = 1
let e_repl = 2
let e_inval = 3
let e_data_m = 4
let e_data_e = 5
let e_data_s = 6
let e_wb_ack = 7

let visit t addr state event =
  Coverage.hit t.covm ~state ~event;
  match Obs.trace () with
  | Some tr ->
      Trace.transition tr ~cycle:(Engine.now t.engine) ~controller:t.name
        ~addr:(Addr.to_int addr) ~state:state_names.(state) ~event:event_names.(event) ()
  | None -> ()

let probe t addr =
  match Cache_array.find t.array addr with
  | None -> `I
  | Some { st = Stable St_m; _ } -> `M
  | Some { st = Stable St_e; _ } -> `E
  | Some { st = Stable St_s; _ } -> `S
  | Some { st = Busy _; _ } -> `B

let state_key = function
  | Stable St_m -> "M"
  | Stable St_e -> "E"
  | Stable St_s -> "S"
  | Busy _ -> "B"

let complete t ~on_done value =
  Engine.schedule t.engine ~delay:t.hit_latency ~tag:t.check_tag (fun () -> on_done value)

(* Start evicting a stable line; the line enters B (Busy Put) until WbAck. *)
let start_eviction t addr line stable =
  let req =
    match (t.flavor, stable) with
    | _, St_m -> Xg_iface.Put_m line.data
    | Mesi, St_e -> Xg_iface.Put_e line.data
    | Msi, St_e | Vi, St_e ->
        (* MSI/VI never track E; treat as modified. *)
        Xg_iface.Put_m line.data
    | _, St_s -> Xg_iface.Put_s
  in
  visit t addr (match stable with St_m -> s_m | St_e -> s_e | St_s -> s_s) e_repl;
  line.st <- Busy Put;
  t.pending_evictions <- t.pending_evictions + 1;
  t.lower.Lower_port.send_req addr req

(* The request flavor for a miss. *)
let miss_request t (access : Access.t) =
  match (t.flavor, access.Access.op) with
  | Vi, _ -> Xg_iface.Get_m
  | _, Access.Load -> Xg_iface.Get_s
  | _, Access.Store _ -> Xg_iface.Get_m

let issue t (access : Access.t) ~on_done =
  let addr = access.Access.addr in
  match Cache_array.find t.array addr with
  | Some line -> (
      Cache_array.touch t.array addr;
      match (line.st, access.Access.op) with
      | Stable St_m, Access.Load ->
          visit t addr s_m e_load;
          complete t ~on_done line.data;
          true
      | Stable St_m, Access.Store d ->
          visit t addr s_m e_store;
          line.data <- d;
          complete t ~on_done d;
          true
      | Stable St_e, Access.Load ->
          visit t addr s_e e_load;
          complete t ~on_done line.data;
          true
      | Stable St_e, Access.Store d ->
          (* Table 1: E + store = hit, silently upgrade to M. *)
          visit t addr s_e e_store;
          line.st <- Stable St_m;
          line.data <- d;
          complete t ~on_done d;
          true
      | Stable St_s, Access.Load ->
          visit t addr s_s e_load;
          complete t ~on_done line.data;
          true
      | Stable St_s, Access.Store _ ->
          if t.pending_gets >= t.mshr_limit then false
          else begin
            (* Upgrade miss: keep the line, go Busy, ask for M. *)
            visit t addr s_s e_store;
            line.st <- Busy (Get { access; on_done });
            t.pending_gets <- t.pending_gets + 1;
            t.lower.Lower_port.send_req addr Xg_iface.Get_m;
            true
          end
      | Busy _, Access.Load ->
          visit t addr s_b e_load;
          false
      | Busy _, Access.Store _ ->
          visit t addr s_b e_store;
          false)
  | None ->
      if t.pending_gets >= t.mshr_limit then false
      else if Cache_array.has_room t.array addr then begin
        visit t addr s_i (match access.Access.op with Access.Load -> e_load | Access.Store _ -> e_store);
        let line = { st = Busy (Get { access; on_done }); data = Data.zero } in
        Cache_array.insert t.array addr line;
        t.pending_gets <- t.pending_gets + 1;
        t.lower.Lower_port.send_req addr (miss_request t access);
        true
      end
      else begin
        (match Cache_array.victim t.array addr with
        | Some (victim_addr, victim_line) -> (
            match victim_line.st with
            | Stable stable -> start_eviction t victim_addr victim_line stable
            | Busy _ ->
                (* Eviction already in flight for the LRU way; just wait. *)
                visit t victim_addr s_b e_repl)
        | None -> assert false (* has_room was false, so the set is full *));
        false
      end

let cpu_port t = { Access.issue = (fun access ~on_done -> issue t access ~on_done) }

(* Grant arriving from below while a Get is pending. *)
let apply_grant t line (access : Access.t) ~on_done granted ~data =
  let final_state, value =
    match (access.Access.op, granted) with
    | Access.Load, `S -> (Stable St_s, data)
    | Access.Load, `E -> (Stable St_e, data)
    | Access.Load, `M -> (Stable St_m, data)
    | Access.Store d, `M -> (Stable St_m, d)
    | Access.Store d, `E ->
        (* Store applied to an exclusive-clean grant: silent upgrade. *)
        (Stable St_m, d)
    | Access.Store _, `S ->
        failwith (t.name ^ ": DataS grant for a pending store (interface violation)")
  in
  line.st <- final_state;
  line.data <- value;
  complete t ~on_done value

let on_response t addr (resp : Xg_iface.xg_response) =
  match Cache_array.find t.array addr with
  | None ->
      (* After a device reset the line a response was headed for may be gone;
         before the first reset this is a hard protocol violation. *)
      if not t.flushed then
        failwith
          (Format.asprintf "%s: response %a for non-resident block %a" t.name
             Xg_iface.pp_xg_response resp Addr.pp addr)
  | Some line -> (
      match (line.st, resp) with
      | Busy (Get { access; on_done }), Xg_iface.Data_m data ->
          visit t addr s_b e_data_m;
          t.pending_gets <- t.pending_gets - 1;
          apply_grant t line access ~on_done `M ~data
      | Busy (Get { access; on_done }), Xg_iface.Data_e data ->
          visit t addr s_b e_data_e;
          t.pending_gets <- t.pending_gets - 1;
          let granted = match t.flavor with Mesi -> `E | Msi | Vi -> `M in
          apply_grant t line access ~on_done granted ~data
      | Busy (Get { access; on_done }), Xg_iface.Data_s data ->
          visit t addr s_b e_data_s;
          t.pending_gets <- t.pending_gets - 1;
          apply_grant t line access ~on_done `S ~data
      | Busy Put, Xg_iface.Wb_ack ->
          visit t addr s_b e_wb_ack;
          t.pending_evictions <- t.pending_evictions - 1;
          Cache_array.remove t.array addr
      | (Stable _ | Busy _), _ ->
          failwith
            (Format.asprintf "%s: unexpected response %a in state %s for %a" t.name
               Xg_iface.pp_xg_response resp (state_key line.st) Addr.pp addr))

let on_invalidate t addr =
  match Cache_array.find t.array addr with
  | None ->
      visit t addr s_i e_inval;
      t.lower.Lower_port.send_resp addr Xg_iface.Inv_ack
  | Some line -> (
      match line.st with
      | Stable St_m ->
          visit t addr s_m e_inval;
          t.lower.Lower_port.send_resp addr (Xg_iface.Dirty_wb line.data);
          Cache_array.remove t.array addr
      | Stable St_e ->
          visit t addr s_e e_inval;
          let resp =
            match t.flavor with
            | Mesi -> Xg_iface.Clean_wb line.data
            | Msi | Vi -> Xg_iface.Dirty_wb line.data
          in
          t.lower.Lower_port.send_resp addr resp;
          Cache_array.remove t.array addr
      | Stable St_s ->
          visit t addr s_s e_inval;
          t.lower.Lower_port.send_resp addr Xg_iface.Inv_ack;
          Cache_array.remove t.array addr
      | Busy _ ->
          (* Table 1: not in a stable state -> always InvAck, no further action. *)
          visit t addr s_b e_inval;
          t.lower.Lower_port.send_resp addr Xg_iface.Inv_ack)

(* Device-level reset (the guard's Reset frame landed): drop every line,
   stable or busy, without writebacks — the guard already substituted
   trusted answers for everything outstanding when it quarantined, so
   nothing here is owed to the host.  In-flight accesses are lost the way a
   real hot-reset loses outstanding DMA: their completions never fire. *)
let flush t =
  Cache_array.to_list t.array
  |> List.iter (fun (addr, _) -> Cache_array.remove t.array addr);
  t.pending_gets <- 0;
  t.pending_evictions <- 0;
  t.flushed <- true

let deliver t = function
  | Xg_iface.To_accel_resp { addr; resp } -> on_response t addr resp
  | Xg_iface.To_accel_req { addr; req = Xg_iface.Invalidate } -> on_invalidate t addr
  | Xg_iface.To_xg_req _ | Xg_iface.To_xg_resp _ ->
      invalid_arg (t.name ^ ": received an accelerator-to-XG message")

(* ---- model-checker support ---- *)

let set_check_ctrl t ctrl = t.check_tag <- Engine.pack_tag ~ctrl ~addr:(-1)

let check_each t f =
  Cache_array.iter
    (fun addr line ->
      f addr
        (match line.st with
        | Stable St_m -> `M
        | Stable St_e -> `E
        | Stable St_s -> `S
        | Busy _ -> `T)
        line.data)
    t.array

let check_fingerprint t buf =
  Buffer.add_string buf "al1[";
  Buffer.add_string buf t.name;
  Buffer.add_char buf ']';
  Cache_array.to_list t.array
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)
  |> List.iter (fun (addr, line) ->
         Fp.key buf 'a' (Addr.to_int addr);
         Buffer.add_char buf ':';
         (match line.st with
         | Stable St_m -> Buffer.add_char buf 'M'
         | Stable St_e -> Buffer.add_char buf 'E'
         | Stable St_s -> Buffer.add_char buf 'S'
         | Busy (Get { access; _ }) ->
             Buffer.add_char buf 'g';
             Access.add_text buf access
         | Busy Put -> Buffer.add_char buf 'p');
         Fp.field_int buf (line.data : Data.t);
         Buffer.add_char buf ';')
