module Engine = Xguard_sim.Engine
module Group = Xguard_stats.Counter.Group
module Trace = Xguard_trace.Trace
module Coverage = Xguard_trace.Coverage
module Obs = Xguard_obs.Obs
module Spans = Xguard_obs.Spans

type mode = Full_state | Transactional

type host_need = Fwd_s | Fwd_m | Recall

type host_reply =
  | Reply_ack of { shared : bool }
  | Reply_clean of Data.t
  | Reply_dirty of Data.t

type host_port = {
  get : Addr.t -> [ `S | `S_only | `M ] -> unit;
  put : Addr.t -> [ `S | `E of Data.t | `M of Data.t ] -> unit;
  puts_needed : bool;
  has_get_s_only : bool;
}

(* Full-state tracking: the stable state of the block at the accelerator.
   A block absent from the table is I.  [xg_copy] is the trusted data copy
   kept when the host granted exclusivity on a read-only page (paper
   §2.3.1). *)
type track = { mutable st : [ `S | `E | `M ]; mutable xg_copy : Data.t option }

type inv_pend = {
  need : host_need;
  reply : host_reply -> unit;
  expect_owner : bool;
  mutable replied : bool;
}

type get_pend = { want : [ `S | `M ]; ro : bool }

type per_addr = {
  mutable p_get : get_pend option;
  mutable p_put : [ `S | `E | `M ] option;
  mutable p_inv : inv_pend option;
  mutable absorb : int;  (* late accelerator responses to swallow silently *)
  stalled_gets : Xg_iface.accel_request Queue.t;
  (* Park timestamps mirroring [stalled_gets], maintained only while the span
     layer records (pushed/popped strictly in step with it). *)
  stall_stamps : int Queue.t;
}

(* Handles for the per-event stat counters: one dense-id lookup per bump
   instead of a string-keyed probe. *)
type stat_ids = {
  s_accel_request : Group.id;
  s_accel_response : Group.id;
  s_grant_to_accel : Group.id;
  s_put_complete : Group.id;
  s_snoop_fast_path : Group.id;
  s_side_channel_filtered : Group.id;
  s_get_s_forwarded : Group.id;
  s_get_m_forwarded : Group.id;
  s_put_s_forwarded : Group.id;
  s_put_e_forwarded : Group.id;
  s_put_m_forwarded : Group.id;
  s_put_s_suppressed : Group.id;
  s_put_s_unnecessary : Group.id;
  s_invalidate_to_accel : Group.id;
  s_request_blocked : Group.id;
  s_get_stalled_behind_put : Group.id;
  s_response_corrected : Group.id;
  s_late_response_absorbed : Group.id;
  s_response_dropped : Group.id;
  s_timeout_reply_for_accel : Group.id;
}

(* Recovery lifecycle policy (PR 8).  [None] keeps the PR 3 behaviour:
   quarantine is terminal.  With a policy installed the guard walks
   quarantine -> link reset -> probation -> healthy, or gives up with a
   permanent kill after [permakill_after] quarantines. *)
type recovery = {
  reset_delay : int;  (** cycles after quarantine before the reset handshake starts *)
  reset_timeout : int;  (** per-attempt handshake timeout (Link.reset) *)
  reset_attempts : int;
  probation_window : int;  (** clean cycles on probation before promotion *)
  probation_rate : float;  (** probation token-bucket refill (requests/cycle) *)
  probation_burst : int;
  probation_quarantine_after : int;  (** stricter escalation threshold on probation *)
  permakill_after : int;  (** quarantines (incl. failed resets) before permanent kill *)
}

let make_recovery ?(reset_delay = 200) ?(reset_timeout = 64) ?(reset_attempts = 4)
    ?(probation_window = 2000) ?(probation_rate = 0.05) ?(probation_burst = 4)
    ?(probation_quarantine_after = 2) ?(permakill_after = 4) () =
  {
    reset_delay = max 1 reset_delay;
    reset_timeout = max 1 reset_timeout;
    reset_attempts = max 1 reset_attempts;
    probation_window = max 1 probation_window;
    probation_rate;
    probation_burst;
    probation_quarantine_after = max 1 probation_quarantine_after;
    permakill_after = max 1 permakill_after;
  }

(* Per-phase hang budgets (PR 8): cycle ceilings on the three attributable
   phases of a crossing.  A phase exceeding its budget trips a violation stat
   and feeds the quarantine escalation ladder — strictly before the coarse
   G2c timeout would fire for a wedged invalidation.  All [None] (the
   default) schedules no checks at all: byte-identical to pre-budget runs. *)
type budgets = { req_decide : int option; inv_ack : int option; fetch_data : int option }

let no_budgets = { req_decide = None; inv_ack = None; fetch_data = None }

type budget_phase = Req_decide | Inv_ack | Fetch_data

let budget_phase_name = function
  | Req_decide -> "req_decide"
  | Inv_ack -> "inv_ack"
  | Fetch_data -> "fetch_data"

type t = {
  engine : Engine.t;
  name : string;
  mode : mode;
  link : Xg_iface.Link.t;
  self : Node.t;
  accel : Node.t;
  host : host_port;
  perms : Perm_table.t;
  os : Os_model.t;
  timeout : int;
  rate_limiter : Rate_limiter.t option;
  suppress_put_s : bool;
  tracks : track Int_table.t;
  pending : per_addr Int_table.t;
  stats : Group.t;
  sid : stat_ids;
  violation_ids : Group.id array;
      (** the ids of [stat_vocab]: a violation's at its {!Os_model.kind_index} *)
  coverage : Group.t;
  cov : Coverage.matrix;
  mutable storage : int;  (* current footprint: see [storage_bits] *)
  mutable peak_bits : int;
  (* Lossy-link degradation (PR 3): consecutive unrecoverable link faults,
     and whether the accelerator has been quarantined. *)
  quarantine_after : int;
  mutable link_faults : int;
  mutable quarantined : bool;
  fault_cov : Group.t;
  fcov : Coverage.matrix;
  mutable on_quarantine : unit -> unit;
  (* Recovery lifecycle (PR 8).  All quiescent unless [recovery] is set. *)
  recovery : recovery option;
  budgets : budgets;
  probation_rl : Rate_limiter.t option;
  mutable probation : bool;
  mutable probation_gen : int;  (* invalidates stale promotion checks *)
  mutable quarantine_count : int;
  mutable rejoins : int;
  mutable permakilled : bool;
  mutable down_since : int;  (* quarantine entry time; -1 while in service *)
  mutable down_cycles : int;
  mutable budget_trips : int;
  mutable perm_snapshot : Perm_table.snapshot option;
  (* Controller id used in model-checker choice tags.  Defaults to the link
     endpoint's node; the harness overrides it with the host-side port's node
     so every event touching the {core, port} cluster shares one id. *)
  mutable check_ctrl : int;
}

let mode t = t.mode
let stats t = t.stats
let coverage t = t.coverage
let fault_coverage t = t.fault_cov
let quarantined t = t.quarantined
let set_on_quarantine t f = t.on_quarantine <- f

(* ---- recovery observability (PR 8) ---- *)

let in_probation t = t.probation
let permakilled t = t.permakilled
let quarantine_count t = t.quarantine_count
let rejoins t = t.rejoins
let budget_trips t = t.budget_trips

let down_cycles t ~now =
  t.down_cycles + if t.down_since >= 0 then max 0 (now - t.down_since) else 0

(* ---- bookkeeping ---- *)

let tag_bits = 34
let state_bits = 2
let txn_bits = tag_bits + 8
let data_bits = 512

let copy_bits = function Some _ -> data_bits | None -> 0
let track_bits (tr : track) = tag_bits + state_bits + copy_bits tr.xg_copy
let slot_bits = function None -> 0 | Some _ -> txn_bits
let put_bits = function None -> 0 | Some (`E | `M) -> txn_bits + data_bits | Some `S -> txn_bits

let recount_storage_bits t =
  Int_table.fold (fun _ tr acc -> acc + track_bits tr) t.tracks 0
  + Int_table.fold
      (fun _ p acc -> acc + slot_bits p.p_get + slot_bits p.p_inv + put_bits p.p_put)
      t.pending 0

(* [storage] is kept equal to [recount_storage_bits] by routing every change
   of a track, its trusted copy or a get/put/invalidate slot through the
   setters below, so sampling the footprint costs nothing. *)
let storage_bits t = t.storage

let note_storage t = if t.storage > t.peak_bits then t.peak_bits <- t.storage

let set_get t (p : per_addr) g =
  t.storage <- t.storage - slot_bits p.p_get + slot_bits g;
  p.p_get <- g

let set_inv t (p : per_addr) inv =
  t.storage <- t.storage - slot_bits p.p_inv + slot_bits inv;
  p.p_inv <- inv

let set_put t (p : per_addr) put =
  t.storage <- t.storage - put_bits p.p_put + put_bits put;
  p.p_put <- put

let set_copy t (tr : track) copy =
  t.storage <- t.storage - copy_bits tr.xg_copy + copy_bits copy;
  tr.xg_copy <- copy

let tracked_blocks t = Int_table.length t.tracks
let peak_storage_bits t = max t.peak_bits t.storage

let open_transactions t =
  Int_table.fold
    (fun _ p acc ->
      let one = function None -> 0 | Some _ -> 1 in
      acc + one p.p_get + one p.p_inv + match p.p_put with None -> 0 | Some _ -> 1)
    t.pending 0

let accel_state t addr =
  match (t.mode, Int_table.find_opt t.tracks addr) with
  | Full_state, None -> `I
  | Full_state, Some { st = `S; _ } -> `S
  | Full_state, Some { st = `E; _ } -> `E
  | Full_state, Some { st = `M; _ } -> `M
  | Transactional, _ -> `Unknown

let slot t addr =
  match Int_table.find_opt t.pending addr with
  | Some p -> p
  | None ->
      let p =
        {
          p_get = None;
          p_put = None;
          p_inv = None;
          absorb = 0;
          stalled_gets = Queue.create ();
          stall_stamps = Queue.create ();
        }
      in
      Int_table.replace t.pending addr p;
      p

let prune t addr (p : per_addr) =
  if
    p.p_get = None && p.p_put = None && p.p_inv = None && p.absorb = 0
    && Queue.is_empty p.stalled_gets
  then Int_table.remove t.pending addr

let set_track t addr st =
  (match Int_table.find_opt t.tracks addr with
  | Some tr -> tr.st <- st
  | None ->
      let tr = { st; xg_copy = None } in
      t.storage <- t.storage + track_bits tr;
      Int_table.replace t.tracks addr tr);
  note_storage t

let clear_track t addr =
  match Int_table.find_opt t.tracks addr with
  | Some tr ->
      t.storage <- t.storage - track_bits tr;
      Int_table.remove t.tracks addr
  | None -> ()

let note t text =
  match Obs.trace () with
  | Some tr -> Trace.note tr ~cycle:(Engine.now t.engine) ~controller:t.name ~text ()
  | None -> ()

(* The guard resolved the request on [addr]: closes its span's [xg.decide]. *)
let decided t addr =
  match Obs.spans () with
  | Some sr -> Spans.xg_decided sr ~addr:(Addr.to_int addr) ~now:(Engine.now t.engine)
  | None -> ()

let report t kind addr =
  Group.incr_id t.stats t.violation_ids.(Os_model.kind_index kind);
  (match Obs.trace () with
  | Some tr ->
      Trace.note tr ~cycle:(Engine.now t.engine) ~controller:t.name ~addr:(Addr.to_int addr)
        ~text:("violation: " ^ Os_model.error_kind_to_string kind)
        ()
  | None -> ());
  Os_model.report t.os kind addr

let send_accel t msg =
  Xg_iface.Link.send t.link ~src:t.self ~dst:t.accel ~size:(Xg_iface.msg_size msg) msg

let respond_accel t addr resp = send_accel t (Xg_iface.To_accel_resp { addr; resp })

(* ---- transition coverage & tracing ----

   The guard has no spelled-out state machine; its per-block "state" is the
   combination of pending transaction slots, the trusted full-state table and
   (transactionally) the page permission.  [state_key] collapses that into a
   small vocabulary so (state x event) coverage is meaningful:
   B_inv/B_get/B_put while a transaction is open, I/S/S_RO/E/M from the
   full-state table, T_NA/T_RO/T_RW from permissions in transactional mode. *)

(* States and events are indexed into [coverage_space]'s lists so the hot
   [visit] path records transitions via a dense-id matrix (PR 4) — no string
   building per event.  Names are only materialized when tracing. *)

let state_names =
  [| "I"; "S"; "S_RO"; "E"; "M"; "B_get"; "B_put"; "B_inv"; "T_NA"; "T_RO"; "T_RW"; "Q" |]

let state_idx t addr =
  if t.quarantined then 11 (* Q *)
  else
    match Int_table.find_opt t.pending addr with
    | Some { p_inv = Some _; _ } -> 7 (* B_inv *)
    | Some { p_get = Some _; _ } -> 5 (* B_get *)
    | Some { p_put = Some _; _ } -> 6 (* B_put *)
    | _ -> (
        match t.mode with
        | Transactional -> (
            match Perm_table.perm t.perms addr with
            | Perm.No_access -> 8 (* T_NA *)
            | Perm.Read_only -> 9 (* T_RO *)
            | Perm.Read_write -> 10 (* T_RW *))
        | Full_state -> (
            match Int_table.find_opt t.tracks addr with
            | None -> 0 (* I *)
            | Some { st = `S; xg_copy = Some _ } -> 2 (* S_RO *)
            | Some { st = `S; xg_copy = None } -> 1 (* S *)
            | Some { st = `E; _ } -> 3 (* E *)
            | Some { st = `M; _ } -> 4 (* M *)))

let state_key t addr = state_names.(state_idx t addr)

let event_names =
  [|
    "GetS"; "GetM"; "PutS"; "PutE"; "PutM"; "CleanWB"; "DirtyWB"; "InvAck";
    "Fwd_S"; "Fwd_M"; "Recall"; "Grant"; "PutDone"; "Timeout"; "Quarantine";
  |]

let ev_clean_wb = 5
let ev_dirty_wb = 6
let ev_inv_ack = 7
let ev_grant = 11
let ev_put_done = 12
let ev_timeout = 13
let ev_quarantine = 14

let visit t addr event f =
  let before = state_idx t addr in
  Coverage.hit t.cov ~state:before ~event;
  match Obs.trace () with
  | Some tr ->
      f ();
      Trace.transition tr ~cycle:(Engine.now t.engine) ~controller:t.name
        ~addr:(Addr.to_int addr) ~state:state_names.(before)
        ~event:event_names.(event) ~next:(state_key t addr) ()
  | None -> f ()

let event_of_accel_request = function
  | Xg_iface.Get_s -> 0
  | Xg_iface.Get_m -> 1
  | Xg_iface.Put_s -> 2
  | Xg_iface.Put_e _ -> 3
  | Xg_iface.Put_m _ -> 4

let event_of_accel_response = function
  | Xg_iface.Clean_wb _ -> ev_clean_wb
  | Xg_iface.Dirty_wb _ -> ev_dirty_wb
  | Xg_iface.Inv_ack -> ev_inv_ack

let event_of_host_need = function Fwd_s -> 8 | Fwd_m -> 9 | Recall -> 10

let coverage_space =
  let requests = [ "GetS"; "GetM"; "PutS"; "PutE"; "PutM" ] in
  let responses = [ "CleanWB"; "DirtyWB"; "InvAck" ] in
  let host_needs = [ "Fwd_S"; "Fwd_M"; "Recall" ] in
  let states =
    [ "I"; "S"; "S_RO"; "E"; "M"; "B_get"; "B_put"; "B_inv"; "T_NA"; "T_RO"; "T_RW"; "Q" ]
  in
  let possible state event =
    (* [Q] is the quarantined terminal: accelerator traffic is dropped before
       it is visited, so only host-side events (and the quarantine drain
       itself) can be observed there. *)
    if event = "Quarantine" then state = "Q"
    else if state = "Q" then
      List.mem event host_needs || event = "Grant" || event = "PutDone"
    else if List.mem event requests || List.mem event responses then true
    else if List.mem event host_needs then
      (* [host_request] asserts no invalidation is already pending. *)
      state <> "B_inv"
    else
      (* A pending invalidation masks the busy-get/busy-put facets in
         [state_key] (it is checked first), so a host grant or put
         completion can also arrive while the guard reads as B_inv. *)
      match event with
      | "Grant" -> state = "B_get" || state = "B_inv"
      | "PutDone" -> state = "B_put" || state = "B_inv"
      | "Timeout" -> state = "B_inv"
      | _ -> false
  in
  Xguard_trace.Coverage.space ~name:"xg" ~states
    ~events:(requests @ responses @ host_needs @ [ "Grant"; "PutDone"; "Timeout"; "Quarantine" ])
    ~possible ()

(* ---- link-fault degradation coverage ----

   A much smaller machine tracks the guard's overall health: armed (no
   outstanding fault), degraded (the link reported unrecoverable faults but
   the quarantine threshold has not been reached) and quarantined. *)

let fault_state_idx t =
  if t.permakilled then 4 (* F_permakilled *)
  else if t.quarantined then 2 (* F_quarantined *)
  else if t.probation then 3 (* F_probation *)
  else if t.link_faults > 0 then 1 (* F_degraded *)
  else 0 (* F_armed *)

let fev_link_fault = 0
let fev_recover = 1
let fev_quarantine = 2
let fev_host_answered = 3
let fev_accel_dropped = 4
let fev_reset = 5
let fev_rejoin = 6
let fev_promote = 7
let fev_permakill = 8
let fev_budget_trip = 9

let fvisit t event = Coverage.hit t.fcov ~state:(fault_state_idx t) ~event

let fault_coverage_space =
  Xguard_trace.Coverage.space ~name:"xg.fault"
    ~states:[ "F_armed"; "F_degraded"; "F_quarantined"; "F_probation"; "F_permakilled" ]
    ~events:
      [
        "LinkFault"; "Recover"; "Quarantine"; "HostAnswered"; "AccelDropped"; "Reset";
        "Rejoin"; "Promote"; "Permakill"; "BudgetTrip";
      ]
    ~possible:(fun state event ->
      (* Events are visited in the pre-transition state.  [F_probation] sees
         the same fault/escalation events as the healthy states; everything
         addressed to a gone device ([HostAnswered]/[AccelDropped]) can fire
         both while quarantined and after the permanent kill. *)
      match event with
      | "LinkFault" | "BudgetTrip" ->
          state = "F_armed" || state = "F_degraded" || state = "F_probation"
      | "Recover" | "Quarantine" -> state = "F_degraded" || state = "F_probation"
      | "HostAnswered" | "AccelDropped" ->
          state = "F_quarantined" || state = "F_permakilled"
      | "Reset" | "Rejoin" | "Permakill" -> state = "F_quarantined"
      | "Promote" -> state = "F_probation"
      | _ -> false)
    ()

(* ---- host-initiated invalidations ---- *)

let reply_once t (p : per_addr) (inv : inv_pend) reply =
  if not inv.replied then begin
    inv.replied <- true;
    ignore p;
    ignore t;
    inv.reply reply
  end

let finish_inv t addr (p : per_addr) =
  set_inv t p None;
  prune t addr p

(* Default answer when the accelerator cannot be trusted to respond. *)
let default_reply t inv =
  match (t.mode, inv.expect_owner) with
  | Full_state, true -> Reply_dirty Data.zero
  | _, _ -> Reply_ack { shared = false }

(* ---- lossy-link degradation (PR 3) and recovery lifecycle (PR 8) ---- *)

(* The accelerator's link is gone: answer everything outstanding from trusted
   state (the same answer-on-behalf machinery as G2c), hand tracked blocks
   back to the host, revoke the accelerator's pages and tell the OS.  The
   host side keeps running.  Without a recovery policy that is terminal (the
   PR 3 behaviour); with one, the guard snapshots the page grants first and
   schedules a link-reset handshake — or gives up for good once
   [permakill_after] lives are burned. *)
let rec quarantine t =
  if not t.quarantined then begin
    fvisit t fev_quarantine;
    t.quarantined <- true;
    Group.incr t.stats "quarantined";
    note t "quarantine: draining outstanding transactions";
    (* Open host invalidations first: reply from trusted state, exactly the
       G2c substitution.  Deterministic address order keeps runs stable. *)
    List.iter
      (fun (addr, p) ->
        visit t addr ev_quarantine (fun () ->
            (match p.p_inv with
            | Some inv ->
                (match Int_table.find_opt t.tracks addr with
                | Some { xg_copy = Some copy; _ } -> reply_once t p inv (Reply_clean copy)
                | Some { st = `E | `M; _ } ->
                    Group.incr t.stats "quarantine_zeroed_wb";
                    reply_once t p inv (Reply_dirty Data.zero)
                | Some { st = `S; _ } | None -> reply_once t p inv (default_reply t inv));
                clear_track t addr;
                finish_inv t addr p
            | None -> ());
            Queue.clear p.stalled_gets;
            Queue.clear p.stall_stamps;
            prune t addr p))
      (Int_table.sorted_bindings t.pending);
    (* Tracked blocks with no transaction in flight: relinquish them so the
       host directory never records the dead accelerator as a sharer/owner.
       Blocks with an open get settle when [granted] fires; open puts when
       [put_complete] does. *)
    List.iter
      (fun (addr, tr) ->
        let p = slot t addr in
        if p.p_get = None && p.p_put = None then
          visit t addr ev_quarantine (fun () ->
              (match (tr.st, tr.xg_copy) with
              | _, Some copy ->
                  set_put t p (Some `E);
                  Group.incr t.stats "ro_copy_relinquished";
                  t.host.put addr (`E copy)
              | (`E | `M), None ->
                  set_put t p (Some `M);
                  Group.incr t.stats "quarantine_zeroed_wb";
                  t.host.put addr (`M Data.zero)
              | `S, None ->
                  if t.host.puts_needed then begin
                    set_put t p (Some `S);
                    t.host.put addr `S
                  end);
              clear_track t addr;
              prune t addr p)
        else clear_track t addr)
      (Int_table.sorted_bindings t.tracks);
    (match t.recovery with
    | Some _ when t.perm_snapshot = None ->
        (* Captured before the revocation so rejoin can re-grant the same
           mappings. *)
        t.perm_snapshot <- Some (Perm_table.snapshot t.perms)
    | _ -> ());
    Perm_table.revoke_all t.perms;
    Os_model.quarantine t.os;
    t.quarantine_count <- t.quarantine_count + 1;
    t.down_since <- Engine.now t.engine;
    t.probation <- false;
    t.on_quarantine ();
    match t.recovery with
    | None -> ()
    | Some r ->
        if t.quarantine_count >= r.permakill_after then permakill t
        else Engine.schedule t.engine ~delay:r.reset_delay (fun () -> start_reset t r)
  end

and permakill t =
  if not t.permakilled then begin
    fvisit t fev_permakill;
    t.permakilled <- true;
    t.probation <- false;
    Group.incr t.stats "permakilled";
    note t "permanent kill: recovery abandoned";
    Os_model.permakill t.os;
    Xg_iface.Link.kill t.link
  end

and start_reset t r =
  if t.quarantined && not t.permakilled then begin
    fvisit t fev_reset;
    Group.incr t.stats "link_resets";
    note t "link reset: handshake started";
    Xg_iface.Link.reset t.link ~src:t.self ~dst:t.accel ~timeout:r.reset_timeout
      ~attempts:r.reset_attempts
      ~on_ready:(fun () -> rejoin t r)
      ~on_dead:(fun () ->
        (* The handshake itself died on the wire: burn another life. *)
        Group.incr t.stats "reset_failures";
        Xg_iface.Link.kill t.link;
        t.quarantine_count <- t.quarantine_count + 1;
        if t.quarantine_count >= r.permakill_after then permakill t
        else Engine.schedule t.engine ~delay:r.reset_delay (fun () -> start_reset t r))
      ()
  end

and rejoin t r =
  if t.quarantined && not t.permakilled then begin
    fvisit t fev_rejoin;
    t.quarantined <- false;
    t.probation <- true;
    t.link_faults <- 0;
    t.rejoins <- t.rejoins + 1;
    if t.down_since >= 0 then begin
      t.down_cycles <- t.down_cycles + (Engine.now t.engine - t.down_since);
      t.down_since <- -1
    end;
    (match t.perm_snapshot with
    | Some snap ->
        (* The OS re-maps the device's pages as part of re-admission. *)
        Perm_table.restore t.perms snap;
        t.perm_snapshot <- None
    | None -> ());
    Group.incr t.stats "rejoins";
    Os_model.rejoin t.os;
    note t "rejoin: accelerator re-admitted on probation";
    schedule_promotion t r
  end

and promote t =
  if t.probation && (not t.quarantined) && not t.permakilled then begin
    fvisit t fev_promote;
    t.probation <- false;
    Group.incr t.stats "promotions";
    Os_model.promote t.os;
    note t "promotion: clean probation window, healthy again"
  end

(* A clean [probation_window] promotes; any fault during probation restarts
   the clock (the generation counter retires stale checks). *)
and schedule_promotion t r =
  t.probation_gen <- t.probation_gen + 1;
  let gen = t.probation_gen in
  Engine.schedule t.engine ~delay:r.probation_window (fun () ->
      if t.probation && t.probation_gen = gen then promote t)

let effective_quarantine_after t =
  match t.recovery with
  | Some r when t.probation -> r.probation_quarantine_after
  | _ -> t.quarantine_after

let link_fault t =
  if not (t.quarantined || t.permakilled) then begin
    fvisit t fev_link_fault;
    t.link_faults <- t.link_faults + 1;
    Group.incr t.stats "link_faults";
    report t Os_model.Link_fault (Addr.block 0);
    if t.link_faults >= effective_quarantine_after t then quarantine t
    else
      match t.recovery with
      | Some r when t.probation -> schedule_promotion t r
      | _ -> ()
  end

let link_recovered t =
  if (not t.quarantined) && t.link_faults > 0 then begin
    fvisit t fev_recover;
    t.link_faults <- 0;
    Group.incr t.stats "link_recoveries"
  end

(* A per-phase hang budget tripped: count it, tell the OS, and feed the same
   escalation ladder as a link fault — so a slow-but-not-dead accelerator is
   quarantined (and, with recovery on, put on probation) long before the
   coarse G2c timeout would have wedged a transaction slot. *)
let budget_trip t phase addr =
  if not (t.quarantined || t.permakilled) then begin
    fvisit t fev_budget_trip;
    t.budget_trips <- t.budget_trips + 1;
    Group.incr t.stats "budget_trips";
    Group.incr t.stats ("budget_trip." ^ budget_phase_name phase);
    report t Os_model.Budget_exceeded addr;
    t.link_faults <- t.link_faults + 1;
    if t.link_faults >= effective_quarantine_after t then quarantine t
    else
      match t.recovery with
      | Some r when t.probation -> schedule_promotion t r
      | _ -> ()
  end

let start_accel_invalidation t addr (p : per_addr) inv =
  set_inv t p (Some inv);
  note_storage t;
  Group.incr_id t.stats t.sid.s_invalidate_to_accel;
  send_accel t (Xg_iface.To_accel_req { addr; req = Xg_iface.Invalidate });
  (* inv->ack hang budget: fires strictly before the G2c timeout and only
     escalates — the G2c substitution below still produces the answer. *)
  (match t.budgets.inv_ack with
  | Some b when b < t.timeout ->
      Engine.schedule t.engine ~delay:b
        ~tag:(Engine.pack_tag ~ctrl:t.check_ctrl ~addr:(Addr.to_int addr))
        (fun () ->
          match p.p_inv with
          | Some i when i == inv && not i.replied -> budget_trip t Inv_ack addr
          | _ -> ())
  | _ -> ());
  Engine.schedule t.engine ~delay:t.timeout
    ~tag:(Engine.pack_tag ~ctrl:t.check_ctrl ~addr:(Addr.to_int addr))
    (fun () ->
      match p.p_inv with
      | Some i when i == inv && not i.replied ->
          visit t addr ev_timeout (fun () ->
              (match Obs.spans () with
              | Some sr -> Spans.inv_timeout sr ~addr:(Addr.to_int addr) ~now:(Engine.now t.engine)
              | None -> ());
              report t Os_model.Response_timeout addr;
              Group.incr_id t.stats t.sid.s_timeout_reply_for_accel;
              clear_track t addr;
              reply_once t p i (default_reply t i);
              (* The late response, if any, must be swallowed. *)
              p.absorb <- p.absorb + 1;
              finish_inv t addr p)
      | _ -> ())

let host_request t addr ~need ~reply =
  if t.quarantined then fvisit t fev_host_answered;
  visit t addr (event_of_host_need need) @@ fun () ->
  let p = slot t addr in
  assert (p.p_inv = None);
  (* A pending put here can only be a non-owner PutS still settling with the
     host (owner writebacks are answered by the port itself); the accelerator
     already relinquished the block, so the normal paths below answer
     correctly. *)
  match t.mode with
  | Full_state -> (
      match Int_table.find_opt t.tracks addr with
      | None ->
          Group.incr_id t.stats t.sid.s_snoop_fast_path;
          reply (Reply_ack { shared = false });
          (* [slot] above may have created an empty record for this fast
             path; drop it (snapshot symmetry: empty slots must not leak). *)
          prune t addr p
      | Some { st = `S; xg_copy = None } when need = Fwd_s ->
          Group.incr_id t.stats t.sid.s_snoop_fast_path;
          reply (Reply_ack { shared = true });
          prune t addr p
      | Some ({ st = `S; xg_copy = Some copy } as tr) ->
          if need = Fwd_s then begin
            (* XG owns the trusted copy of this read-only block; serve data
               without disturbing the accelerator. *)
            Group.incr_id t.stats t.sid.s_snoop_fast_path;
            reply (Reply_clean copy);
            prune t addr p
          end
          else begin
            ignore tr;
            start_accel_invalidation t addr p
              { need; reply; expect_owner = false; replied = false }
          end
      | Some { st = `S; xg_copy = None } ->
          start_accel_invalidation t addr p
            { need; reply; expect_owner = false; replied = false }
      | Some { st = `E | `M; _ } ->
          start_accel_invalidation t addr p
            { need; reply; expect_owner = true; replied = false })
  | Transactional -> (
      let perm = Perm_table.perm t.perms addr in
      match perm with
      | Perm.No_access ->
          (* The accelerator cannot hold this block; answering locally also
             hides host coherence traffic from a potentially malicious
             accelerator (side-channel filtering, §3.2). *)
          Group.incr_id t.stats t.sid.s_side_channel_filtered;
          reply (Reply_ack { shared = false });
          prune t addr p
      | Perm.Read_only when need = Fwd_s ->
          (* The accelerator cannot own the block (G0b), so no data is
             needed; conservatively report it shared. *)
          Group.incr_id t.stats t.sid.s_snoop_fast_path;
          reply (Reply_ack { shared = true });
          prune t addr p
      | Perm.Read_only | Perm.Read_write -> (
          (* Deduce what we can from open transactions: a pending GetS means
             the accelerator holds nothing yet. *)
          match p.p_get with
          | Some { want = `S; _ } when need <> Fwd_s ->
              Group.incr_id t.stats t.sid.s_snoop_fast_path;
              reply (Reply_ack { shared = false });
              prune t addr p
          | _ ->
              start_accel_invalidation t addr p
                { need; reply; expect_owner = false; replied = false }))

(* ---- accelerator responses ---- *)

let accel_response t addr (resp : Xg_iface.accel_response) =
  visit t addr (event_of_accel_response resp) @@ fun () ->
  (* Looked up, not created: a block without a slot can only answer G2b. *)
  match Int_table.find_opt t.pending addr with
  | Some ({ p_inv = Some inv; _ } as p) -> (
      let keep_shared = inv.need = Fwd_s in
      (match t.mode with
      | Full_state -> (
          let tr = Int_table.find_opt t.tracks addr in
          let expected_ok =
            match (resp, tr) with
            | Xg_iface.Dirty_wb _, Some { st = `M | `E; xg_copy = None } -> true
            | Xg_iface.Clean_wb _, Some { st = `E; xg_copy = None } -> true
            | Xg_iface.Inv_ack, Some { st = `S; _ } -> true
            | Xg_iface.Inv_ack, None -> true
            | _ -> false
          in
          if expected_ok then
            match resp with
            | Xg_iface.Dirty_wb data -> reply_once t p inv (Reply_dirty data)
            | Xg_iface.Clean_wb data -> reply_once t p inv (Reply_clean data)
            | Xg_iface.Inv_ack -> (
                match tr with
                | Some { xg_copy = Some copy; _ } ->
                    (* Serve the trusted read-only copy on the block's
                       behalf. *)
                    reply_once t p inv (Reply_clean copy)
                | Some _ | None ->
                    reply_once t p inv
                      (Reply_ack { shared = keep_shared && tr <> None }))
          else begin
            (* G2a: correct the response type from trusted state. *)
            report t Os_model.Bad_response_type addr;
            Group.incr_id t.stats t.sid.s_response_corrected;
            match tr with
            | Some { xg_copy = Some copy; _ } -> reply_once t p inv (Reply_clean copy)
            | Some { st = `M | `E; _ } -> (
                (* An owner that did not produce a dirty writeback: if it sent
                   data of the wrong type, use it; if it acked, substitute a
                   zeroed block (paper §2.2). *)
                match resp with
                | Xg_iface.Clean_wb d | Xg_iface.Dirty_wb d -> reply_once t p inv (Reply_dirty d)
                | Xg_iface.Inv_ack -> reply_once t p inv (Reply_dirty Data.zero))
            | Some { st = `S; _ } | None -> reply_once t p inv (Reply_ack { shared = false })
          end)
      | Transactional -> (
          match resp with
          | Xg_iface.Dirty_wb data | Xg_iface.Clean_wb data ->
              if not (Perm_table.allows_write t.perms addr) then begin
                (* G0b: data from a read-only block is not accepted. *)
                report t Os_model.Perm_write_violation addr;
                reply_once t p inv (Reply_ack { shared = false })
              end
              else
                reply_once t p inv
                  (match resp with
                  | Xg_iface.Dirty_wb _ -> Reply_dirty data
                  | _ -> Reply_clean data)
          | Xg_iface.Inv_ack -> reply_once t p inv (Reply_ack { shared = false })));
      (match (t.mode, inv.need) with
      | Full_state, Fwd_s -> (
          (* After a read forward the accelerator keeps nothing unless it was
             a plain sharer answered on the fast path (not this code path) —
             an owner was invalidated. *)
          match Int_table.find_opt t.tracks addr with Some _ -> clear_track t addr | None -> ())
      | Full_state, (Fwd_m | Recall) -> clear_track t addr
      | Transactional, _ -> ());
      finish_inv t addr p)
  | Some p when p.absorb > 0 ->
      p.absorb <- p.absorb - 1;
      Group.incr_id t.stats t.sid.s_late_response_absorbed;
      prune t addr p
  | found -> (
      (* G2b: response with no outstanding request. *)
      report t Os_model.Unsolicited_response addr;
      Group.incr_id t.stats t.sid.s_response_dropped;
      match found with Some p -> prune t addr p | None -> ())

(* A request refused before its block's slot is looked up: an existing slot
   is pruned as after every refusal, and none is created. *)
let refuse_request t addr kind =
  report t kind addr;
  Group.incr_id t.stats t.sid.s_request_blocked;
  match Int_table.find_opt t.pending addr with Some p -> prune t addr p | None -> ()

(* ---- accelerator requests ---- *)

let rec process_get t addr (p : per_addr) (req : Xg_iface.accel_request) =
  let want = match req with Xg_iface.Get_m -> `M | _ -> `S in
  let perm = Perm_table.perm t.perms addr in
  let ro = perm = Perm.Read_only in
  let g = { want; ro } in
  set_get t p (Some g);
  (* fetch->data hang budget: the host-side fetch phase of this get. *)
  (match t.budgets.fetch_data with
  | Some b ->
      Engine.schedule t.engine ~delay:b
        ~tag:(Engine.pack_tag ~ctrl:t.check_ctrl ~addr:(Addr.to_int addr))
        (fun () ->
          match p.p_get with
          | Some g' when g' == g -> budget_trip t Fetch_data addr
          | _ -> ())
  | None -> ());
  note_storage t;
  decided t addr;
  Group.incr_id t.stats
    (match want with `M -> t.sid.s_get_m_forwarded | `S -> t.sid.s_get_s_forwarded);
  match want with
  | `M -> t.host.get addr `M
  | `S ->
      if ro && t.host.has_get_s_only then t.host.get addr `S_only
      else t.host.get addr `S

and accept_put t addr (p : per_addr) (req : Xg_iface.accel_request) =
  (* Ack the accelerator immediately (§3.2), then settle with the host. *)
  decided t addr;
  respond_accel t addr Xg_iface.Wb_ack;
  let ro_copy =
    match Int_table.find_opt t.tracks addr with
    | Some { xg_copy = Some copy; _ } -> Some copy
    | _ -> None
  in
  clear_track t addr;
  (* Host-forwarded writebacks keep the crossing's span open until the host
     side settles, so the port can attribute [host.writeback]. *)
  let host_put v =
    (match Obs.spans () with
    | Some sr -> Spans.host_put_issued sr ~addr:(Addr.to_int addr)
    | None -> ());
    t.host.put addr v
  in
  match req with
  | Xg_iface.Put_s when ro_copy <> None ->
      (* The guard itself owns this read-only block at the host (§2.3.1);
         relinquish that ownership with the trusted copy. *)
      let copy = Option.get ro_copy in
      set_put t p (Some `E);
      note_storage t;
      Group.incr t.stats "ro_copy_relinquished";
      host_put (`E copy)
  | Xg_iface.Put_s ->
      if t.host.puts_needed then begin
        set_put t p (Some `S);
        note_storage t;
        Group.incr_id t.stats t.sid.s_put_s_forwarded;
        host_put `S
      end
      else if t.suppress_put_s then begin
        Group.incr_id t.stats t.sid.s_put_s_suppressed;
        pump_stalled t addr p
      end
      else begin
        (* Unnecessary PutS traffic the paper measures at 1-4% of
           XG-to-host bandwidth when the optimization register is off. *)
        set_put t p (Some `S);
        note_storage t;
        Group.incr_id t.stats t.sid.s_put_s_unnecessary;
        host_put `S
      end
  | Xg_iface.Put_e data ->
      set_put t p (Some `E);
      note_storage t;
      Group.incr_id t.stats t.sid.s_put_e_forwarded;
      host_put (`E data)
  | Xg_iface.Put_m data ->
      set_put t p (Some `M);
      note_storage t;
      Group.incr_id t.stats t.sid.s_put_m_forwarded;
      host_put (`M data)
  | Xg_iface.Get_s | Xg_iface.Get_m -> assert false

and pump_stalled t addr (p : per_addr) =
  if p.p_put = None && p.p_get = None && not (Queue.is_empty p.stalled_gets) then begin
    let req = Queue.pop p.stalled_gets in
    (match (Obs.spans (), Queue.take_opt p.stall_stamps) with
    | Some sr, Some parked ->
        let now = Engine.now t.engine in
        let a = Addr.to_int addr in
        let span = match Spans.lookup sr ~addr:a with Some (s, _) -> s | None -> 0 in
        Spans.record sr Spans.Xg_stall
          (Xg_iface.span_txn_of_request req)
          ~span ~addr:a ~ts:parked ~dur:(now - parked)
    | _ -> ());
    process_get t addr p req
  end
  else prune t addr p

and accel_request t addr (req : Xg_iface.accel_request) =
  let perm = Perm_table.perm t.perms addr in
  (* Guarantee 0: page permissions. *)
  if not (Perm.allows_read perm) then refuse_request t addr Os_model.Perm_read_violation
  else if
    (not (Perm.allows_write perm))
    && (match req with
       | Xg_iface.Get_m | Xg_iface.Put_e _ | Xg_iface.Put_m _ -> true
       | Xg_iface.Get_s | Xg_iface.Put_s -> false)
  then refuse_request t addr Os_model.Perm_write_violation
  else begin
    let p = slot t addr in
    if p.p_get <> None then begin
      (* Guarantee 1b: one open request per block. *)
      report t Os_model.Request_while_pending addr;
      Group.incr_id t.stats t.sid.s_request_blocked
    end
    else if p.p_put <> None || not (Queue.is_empty p.stalled_gets) then begin
      match req with
      | Xg_iface.Get_s | Xg_iface.Get_m ->
          (* The accelerator's Put was already acknowledged; its re-fetch is
             legitimate and waits for the internal writeback to settle. *)
          Queue.push req p.stalled_gets;
          if Option.is_some (Obs.spans ()) then Queue.push (Engine.now t.engine) p.stall_stamps;
          Group.incr_id t.stats t.sid.s_get_stalled_behind_put
      | Xg_iface.Put_s | Xg_iface.Put_e _ | Xg_iface.Put_m _ ->
          report t Os_model.Request_while_pending addr;
          Group.incr_id t.stats t.sid.s_request_blocked
    end
    else if p.p_inv <> None && Xg_iface.is_put req then begin
      (* The one race the ordered link allows: the accelerator's Put crossed
         our Invalidate.  Use the writeback as the reply to the host and
         absorb the InvAck that must follow (Table 1: B + Invalidate). *)
      match p.p_inv with
      | Some inv ->
          Group.incr t.stats "put_invalidate_race";
          (match Obs.spans () with
          | Some sr ->
              let a = Addr.to_int addr and now = Engine.now t.engine in
              Spans.inv_race sr ~addr:a ~now;
              Spans.xg_decided sr ~addr:a ~now
          | None -> ());
          respond_accel t addr Xg_iface.Wb_ack;
          clear_track t addr;
          (match req with
          | Xg_iface.Put_m data ->
              if Perm_table.allows_write t.perms addr then reply_once t p inv (Reply_dirty data)
              else reply_once t p inv (Reply_ack { shared = false })
          | Xg_iface.Put_e data ->
              if Perm_table.allows_write t.perms addr then reply_once t p inv (Reply_clean data)
              else reply_once t p inv (Reply_ack { shared = false })
          | Xg_iface.Put_s -> reply_once t p inv (Reply_ack { shared = false })
          | Xg_iface.Get_s | Xg_iface.Get_m -> assert false);
          p.absorb <- p.absorb + 1;
          finish_inv t addr p
      | None -> assert false
    end
    else begin
      (* Guarantee 1a: consistency with the stable state (Full_state only;
         Transactional relies on the host tolerating the request, §2.3.2). *)
      let stable_ok =
        match t.mode with
        | Transactional -> true
        | Full_state -> (
            let st = Int_table.find_opt t.tracks addr in
            match (req, st) with
            | Xg_iface.Get_s, None -> true
            | Xg_iface.Get_m, (None | Some { st = `S; xg_copy = None }) -> true
            | Xg_iface.Put_s, Some { st = `S; _ } -> true
            | Xg_iface.Put_e _, Some { st = `E; xg_copy = None } -> true
            | Xg_iface.Put_m _, Some { st = `M | `E; xg_copy = None } -> true
            | _ -> false)
      in
      if not stable_ok then begin
        report t Os_model.Bad_request_stable addr;
        Group.incr_id t.stats t.sid.s_request_blocked;
        prune t addr p
      end
      else
        match req with
        | Xg_iface.Get_s | Xg_iface.Get_m -> process_get t addr p req
        | Xg_iface.Put_s | Xg_iface.Put_e _ | Xg_iface.Put_m _ -> accept_put t addr p req
    end
  end

(* ---- host-side completions ---- *)

let granted t addr grant =
  visit t addr ev_grant @@ fun () ->
  let p = slot t addr in
  match p.p_get with
  | None -> failwith (t.name ^ ": host grant without an open get")
  | Some _ when t.quarantined ->
      (* The get was open when the link died; the accelerator will never see
         this grant.  Hand the block straight back so the host's directory
         does not record a dead owner. *)
      set_get t p None;
      Group.incr t.stats "quarantine_grant_returned";
      (match grant with
      | `S _ ->
          if t.host.puts_needed then begin
            set_put t p (Some `S);
            t.host.put addr `S
          end
          else prune t addr p
      | `E data ->
          set_put t p (Some `E);
          t.host.put addr (`E data)
      | `M data ->
          set_put t p (Some `M);
          t.host.put addr (`M data))
  | Some { want; ro } ->
      set_get t p None;
      let resp =
        match (grant, want, ro) with
        | `S data, _, _ ->
            if t.mode = Full_state then set_track t addr `S;
            Xg_iface.Data_s data
        | `E data, `S, true when not t.host.has_get_s_only ->
            (* Exclusive grant on a read-only page: keep the trusted copy and
               give the accelerator only a shared view (G0b, §2.3.1). *)
            assert (t.mode = Full_state);
            set_track t addr `S;
            (match Int_table.find_opt t.tracks addr with
            | Some tr -> set_copy t tr (Some data)
            | None -> assert false);
            note_storage t;
            Group.incr t.stats "ro_exclusive_demoted";
            Xg_iface.Data_s data
        | `M data, `S, true when not t.host.has_get_s_only ->
            assert (t.mode = Full_state);
            set_track t addr `S;
            (match Int_table.find_opt t.tracks addr with
            | Some tr -> set_copy t tr (Some data)
            | None -> assert false);
            note_storage t;
            Group.incr t.stats "ro_exclusive_demoted";
            Xg_iface.Data_s data
        | `E data, _, _ ->
            if t.mode = Full_state then set_track t addr `E;
            Xg_iface.Data_e data
        | `M data, _, _ ->
            if t.mode = Full_state then set_track t addr `M;
            Xg_iface.Data_m data
      in
      Group.incr_id t.stats t.sid.s_grant_to_accel;
      respond_accel t addr resp;
      prune t addr p

let put_complete t addr =
  visit t addr ev_put_done @@ fun () ->
  let p = slot t addr in
  match p.p_put with
  | None -> failwith (t.name ^ ": put completion without an open put")
  | Some _ ->
      set_put t p None;
      Group.incr_id t.stats t.sid.s_put_complete;
      pump_stalled t addr p

(* ---- model-checker support ---- *)

let set_check_ctrl t ctrl = t.check_ctrl <- ctrl

let check_pending_slots t = Int_table.length t.pending

let check_tracked t =
  Int_table.sorted_bindings t.tracks
  |> List.map (fun (addr, (tr : track)) -> (addr, tr.st, tr.xg_copy))

let check_tracked_state t addr =
  match Int_table.find_opt t.tracks addr with Some tr -> Some tr.st | None -> None

let check_violation t =
  (* Guarantee 1b: at most one open transaction per block.  The guard's
     per-block slot makes this structural — a get and a put open at once is
     the broken state the invariant engine looks for.  The lowest such
     block is reported. *)
  let lowest =
    Int_table.fold
      (fun addr (p : per_addr) low ->
        if addr < low && p.p_get <> None && p.p_put <> None then addr else low)
      t.pending max_int
  in
  if lowest = max_int then None
  else
    Some
      (Printf.sprintf "%s: G1b violated at block %d (get and put both open)" t.name
         (Addr.to_int lowest))

let check_fingerprint t buf =
  Buffer.add_string buf "xg[";
  Buffer.add_string buf t.name;
  Buffer.add_char buf ']';
  List.iter
    (fun (addr, (tr : track)) ->
      Fp.key buf 'k' (Addr.to_int addr);
      Fp.field buf (match tr.st with `S -> "S" | `E -> "E" | `M -> "M");
      Fp.field_opt buf tr.xg_copy;
      Buffer.add_char buf ';')
    (Int_table.sorted_bindings t.tracks);
  List.iter
    (fun (addr, (p : per_addr)) ->
      Fp.key buf 'p' (Addr.to_int addr);
      Buffer.add_char buf ':';
      (match p.p_get with
      | None -> Buffer.add_char buf '-'
      | Some { want; ro } ->
          Buffer.add_string buf (match want with `S -> "gS" | `M -> "gM");
          if ro then Buffer.add_char buf 'r');
      (match p.p_put with
      | None -> Buffer.add_char buf '-'
      | Some `S -> Buffer.add_string buf "pS"
      | Some `E -> Buffer.add_string buf "pE"
      | Some `M -> Buffer.add_string buf "pM");
      (match p.p_inv with
      | None -> Buffer.add_char buf '-'
      | Some inv ->
          Buffer.add_char buf 'i';
          Buffer.add_char buf (match inv.need with Fwd_s -> 'S' | Fwd_m -> 'M' | Recall -> 'R');
          Fp.bool buf inv.expect_owner;
          Fp.bool buf inv.replied);
      Fp.key buf 'a' p.absorb;
      Buffer.add_char buf ':';
      Queue.iter
        (fun req ->
          Xg_iface.add_accel_request buf req;
          Buffer.add_char buf ',')
        p.stalled_gets;
      Buffer.add_char buf ';')
    (Int_table.sorted_bindings t.pending);
  if t.quarantined then Buffer.add_char buf 'Q';
  if t.link_faults > 0 then Fp.key buf 'F' t.link_faults;
  (* Recovery state appears only when a recovery policy has driven it, so
     legacy fingerprints (MODEL_BASELINE.json) never change. *)
  if t.probation then Buffer.add_char buf 'P';
  if t.permakilled then Buffer.add_char buf 'X';
  if t.quarantine_count > 0 && t.recovery <> None then Fp.key buf 'R' t.quarantine_count

(* ---- wiring ---- *)

(* Every counter a guard bumps by id: the ["violation." ^ kind] counters in
   {!Os_model.all_error_kinds} order, then [stat_names] in [stat_ids] field
   order.  The names are hashed once per process and adopted by every guard's
   still-empty stats group, so neither a build nor a bump hashes a name;
   first touch still orders the counters in the group. *)
let stat_names =
  [|
    "accel_request"; "accel_response"; "grant_to_accel"; "put_complete"; "snoop_fast_path";
    "side_channel_filtered"; "get_s_forwarded"; "get_m_forwarded"; "put_s_forwarded";
    "put_e_forwarded"; "put_m_forwarded"; "put_s_suppressed"; "put_s_unnecessary";
    "invalidate_to_accel"; "request_blocked"; "get_stalled_behind_put"; "response_corrected";
    "late_response_absorbed"; "response_dropped"; "timeout_reply_for_accel";
  |]

let n_violations = List.length Os_model.all_error_kinds

let stat_vocab =
  Group.vocab
    (Array.append
       (Array.of_list
          (List.map
             (fun k -> "violation." ^ Os_model.error_kind_to_string k)
             Os_model.all_error_kinds))
       stat_names)

let stat_ids ids =
  let id k = ids.(n_violations + k) in
  {
    s_accel_request = id 0;
    s_accel_response = id 1;
    s_grant_to_accel = id 2;
    s_put_complete = id 3;
    s_snoop_fast_path = id 4;
    s_side_channel_filtered = id 5;
    s_get_s_forwarded = id 6;
    s_get_m_forwarded = id 7;
    s_put_s_forwarded = id 8;
    s_put_e_forwarded = id 9;
    s_put_m_forwarded = id 10;
    s_put_s_suppressed = id 11;
    s_put_s_unnecessary = id 12;
    s_invalidate_to_accel = id 13;
    s_request_blocked = id 14;
    s_get_stalled_behind_put = id 15;
    s_response_corrected = id 16;
    s_late_response_absorbed = id 17;
    s_response_dropped = id 18;
    s_timeout_reply_for_accel = id 19;
  }

let create ~engine ~name ~mode ~link ~self ~accel ~host ~perms ~os ?(timeout = 2000)
    ?(processing_latency = 4) ?rate_limiter ?(suppress_put_s_register = false)
    ?(quarantine_after = 3) ?recovery ?(budgets = no_budgets) () =
  let stats = Group.create (name ^ ".stats") in
  let coverage = Group.create (name ^ ".coverage") in
  let fault_cov = Group.create (name ^ ".fault_cov") in
  let violation_ids = Group.adopt stats stat_vocab in
  let sid = stat_ids violation_ids in
  let t =
    {
      engine;
      name;
      mode;
      link;
      self;
      accel;
      host;
      perms;
      os;
      timeout;
      rate_limiter;
      suppress_put_s = suppress_put_s_register;
      tracks = Int_table.create 16;
      pending = Int_table.create 16;
      stats;
      sid;
      violation_ids;
      coverage;
      cov = Coverage.intern_matrix coverage_space coverage;
      storage = 0;
      peak_bits = 0;
      quarantine_after = max 1 quarantine_after;
      link_faults = 0;
      quarantined = false;
      fault_cov;
      fcov = Coverage.intern_matrix fault_coverage_space fault_cov;
      on_quarantine = (fun () -> ());
      recovery;
      budgets;
      probation_rl =
        (match recovery with
        | Some r ->
            Some
              (Rate_limiter.create ~engine ~tokens_per_cycle:r.probation_rate
                 ~burst:r.probation_burst ())
        | None -> None);
      probation = false;
      probation_gen = 0;
      quarantine_count = 0;
      rejoins = 0;
      permakilled = false;
      down_since = -1;
      down_cycles = 0;
      budget_trips = 0;
      perm_snapshot = None;
      check_ctrl = Node.id self;
    }
  in
  Xg_iface.Link.register link self (fun ~src:_ msg ->
      (* Charge the guard's pipeline latency once per message. *)
      Engine.schedule t.engine ~delay:processing_latency
        ~tag:(Engine.pack_tag ~ctrl:t.check_ctrl
                ~addr:(Addr.to_int (Xg_iface.msg_addr msg)))
        (fun () ->
          if t.quarantined then begin
            (* The device is quarantined: whatever still trickles out of the
               link (or was already in the pipeline) is dead traffic. *)
            fvisit t fev_accel_dropped;
            Group.incr t.stats "dropped_quarantined"
          end
          else
            match msg with
          | Xg_iface.To_xg_req { addr; req } ->
              if Os_model.accel_disabled t.os then Group.incr t.stats "request_dropped_disabled"
              else begin
                Group.incr_id t.stats t.sid.s_accel_request;
                let visited () =
                  if t.quarantined then begin
                    (* Quarantined while parked in a limiter queue: the
                       admitted request is dead traffic now. *)
                    fvisit t fev_accel_dropped;
                    Group.incr t.stats "dropped_quarantined"
                  end
                  else
                    visit t addr (event_of_accel_request req) (fun () ->
                        accel_request t addr req)
                in
                (* On probation the stricter probation bucket replaces the
                   configured limiter; [probation] is only ever true with a
                   recovery policy, which always builds [probation_rl]. *)
                let limiter = if t.probation then t.probation_rl else t.rate_limiter in
                let run =
                  match t.budgets.req_decide with
                  | None -> visited
                  | Some b ->
                      let arrived = Engine.now t.engine in
                      fun () ->
                        if Engine.now t.engine - arrived > b then
                          budget_trip t Req_decide addr;
                        visited ()
                in
                match limiter with
                | Some rl -> Rate_limiter.admit rl run
                | None -> run ()
              end
          | Xg_iface.To_xg_resp { addr; resp } ->
              (* Responses are never rate limited (§2.5). *)
              Group.incr_id t.stats t.sid.s_accel_response;
              accel_response t addr resp
          | Xg_iface.To_accel_resp _ | Xg_iface.To_accel_req _ ->
              invalid_arg (name ^ ": received a guard-to-accelerator message")));
  t
