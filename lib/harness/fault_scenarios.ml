module Engine = Xguard_sim.Engine
module Xg = Xguard_xg
module Xg_iface = Xguard_xg.Xg_iface
module Network = Xguard_network.Network

type scenario =
  | Read_no_access
  | Write_read_only
  | Put_without_block
  | Double_get
  | Wrong_response_type
  | Unsolicited_response
  | Silent_on_invalidate
  | Link_dead
  | Recovery_rejoin
  | Repeated_quarantine_permakill
  | Tarpit_budget

type outcome = {
  scenario : scenario;
  expected_kind : Xg.Os_model.error_kind;
  detected : bool;
  host_live : bool;
  errors_logged : int;
  quarantined : bool;
  os_quarantined : bool;
  rejoins : int;
  permakilled : bool;
  budget_trips : int;
  g2c_timeouts : int;
  accel_live_after : bool;
      (* recovery scenarios: a fresh accelerator request was granted after
         the rejoin (always false elsewhere) *)
  coverage_sets :
    (string * Xguard_trace.Coverage.space * Xguard_stats.Counter.Group.t list) list;
}

let all_scenarios =
  [
    Read_no_access;
    Write_read_only;
    Put_without_block;
    Double_get;
    Wrong_response_type;
    Unsolicited_response;
    Silent_on_invalidate;
    Link_dead;
    Recovery_rejoin;
    Repeated_quarantine_permakill;
    Tarpit_budget;
  ]

let scenario_name = function
  | Read_no_access -> "G0a: read of a no-access page"
  | Write_read_only -> "G0b: write request to a read-only page"
  | Put_without_block -> "G1a: Put for a block not held"
  | Double_get -> "G1b: second request while one is pending"
  | Wrong_response_type -> "G2a: InvAck while owning the block"
  | Unsolicited_response -> "G2b: unsolicited writeback"
  | Silent_on_invalidate -> "G2c: no response to Invalidate"
  | Link_dead -> "Link: link goes dark mid-transaction"
  | Recovery_rejoin -> "Recovery: quarantine, reset, probation, clean rejoin"
  | Repeated_quarantine_permakill -> "Recovery: repeated quarantines end in permakill"
  | Tarpit_budget -> "Budget: slow-but-honest InvAck trips inv-ack budget before G2c"

let expected_kind = function
  | Read_no_access -> Xg.Os_model.Perm_read_violation
  | Write_read_only -> Xg.Os_model.Perm_write_violation
  | Put_without_block -> Xg.Os_model.Bad_request_stable
  | Double_get -> Xg.Os_model.Request_while_pending
  | Wrong_response_type -> Xg.Os_model.Bad_response_type
  | Unsolicited_response -> Xg.Os_model.Unsolicited_response
  | Silent_on_invalidate -> Xg.Os_model.Response_timeout
  | Link_dead | Recovery_rejoin | Repeated_quarantine_permakill -> Xg.Os_model.Link_fault
  | Tarpit_budget -> Xg.Os_model.Budget_exceeded

(* A scripted accelerator endpoint: records grants, answers invalidations
   according to [inv_policy]. *)
type script = {
  mutable grants : (Addr.t * Xg_iface.xg_response) list;
  mutable inv_policy : Addr.t -> Xg_iface.accel_response option;
  mutable inv_delay : int;  (* cycles before the policy's answer is sent *)
}

let attach_script (sys : System.t) =
  let script = { grants = []; inv_policy = (fun _ -> Some Xg_iface.Inv_ack); inv_delay = 0 } in
  let g0 = sys.System.guards.(0) in
  let link = g0.System.g_link in
  let self = g0.System.g_accel_node in
  let xg = g0.System.g_xg_node in
  let send msg = Xg_iface.Link.send link ~src:self ~dst:xg ~size:(Xg_iface.msg_size msg) msg in
  Xg_iface.Link.register link self (fun ~src:_ msg ->
      match msg with
      | Xg_iface.To_accel_resp { addr; resp } -> script.grants <- (addr, resp) :: script.grants
      | Xg_iface.To_accel_req { addr; req = Xg_iface.Invalidate } -> (
          match script.inv_policy addr with
          | Some resp ->
              if script.inv_delay = 0 then send (Xg_iface.To_xg_resp { addr; resp })
              else
                Engine.schedule sys.System.engine ~delay:script.inv_delay (fun () ->
                    send (Xg_iface.To_xg_resp { addr; resp }))
          | None -> ())
      | Xg_iface.To_xg_req _ | Xg_iface.To_xg_resp _ -> ());
  (script, send)

let cpu_roundtrip (sys : System.t) cpu addr value =
  (* A store then a load through CPU caches; returns true if both complete. *)
  let stored = ref false and loaded = ref None in
  let port = sys.System.cpu_ports.(cpu) in
  let rec attempt_store tries =
    if tries > 500 then false
    else if
      port.Access.issue (Access.store addr (Data.token value)) ~on_done:(fun _ ->
          stored := true)
    then true
    else begin
      ignore (Engine.run sys.System.engine);
      attempt_store (tries + 1)
    end
  in
  let ok = attempt_store 0 in
  ignore (Engine.run sys.System.engine);
  let rec attempt_load tries =
    if tries > 500 then false
    else if port.Access.issue (Access.load addr) ~on_done:(fun v -> loaded := Some v) then true
    else begin
      ignore (Engine.run sys.System.engine);
      attempt_load (tries + 1)
    end
  in
  let ok = ok && attempt_load 0 in
  ignore (Engine.run sys.System.engine);
  ok && !stored && !loaded = Some (Data.token value)

let a_victim = Addr.block 3
let a_unrelated = Addr.block 200

(* A recovery policy small enough that the whole lifecycle (reset after 100
   cycles, 400-cycle probation) fits in one scenario run. *)
let scenario_recovery ~permakill_after =
  Xg.Xg_core.make_recovery ~reset_delay:100 ~reset_timeout:32 ~reset_attempts:4
    ~probation_window:400 ~probation_rate:0.5 ~probation_burst:2
    ~probation_quarantine_after:2 ~permakill_after ()

let run (cfg : Config.t) scenario =
  assert (Config.uses_xg cfg);
  let lossy_quick base =
    (* Reliability on (no probabilistic injection), with a short backoff
       ladder and a low quarantine threshold so the run stays quick. *)
    {
      base with
      Config.link_faults = Some Network.Fault.zero;
      link_retry_timeout = 16;
      link_max_retries = 2;
      quarantine_after = 2;
    }
  in
  let cfg =
    match scenario with
    | Link_dead -> lossy_quick cfg
    | Recovery_rejoin ->
        { (lossy_quick cfg) with Config.recovery = Some (scenario_recovery ~permakill_after:4) }
    | Repeated_quarantine_permakill ->
        { (lossy_quick cfg) with Config.recovery = Some (scenario_recovery ~permakill_after:2) }
    | Tarpit_budget ->
        (* One tripped budget quarantines; the G2c deadline stays far away. *)
        {
          cfg with
          Config.budgets = { Xg.Xg_core.no_budgets with Xg.Xg_core.inv_ack = Some 100 };
          quarantine_after = 1;
          xg_timeout = 4000;
        }
    | _ -> cfg
  in
  let sys = System.build ~attach_accel:false cfg in
  let script, send = attach_script sys in
  let run_engine () = ignore (Engine.run sys.System.engine) in
  let get addr req = send (Xg_iface.To_xg_req { addr; req }) in
  (match scenario with
  | Read_no_access ->
      Xg.Perm_table.set_block sys.System.perms a_victim Perm.No_access;
      get a_victim Xg_iface.Get_s;
      run_engine ()
  | Write_read_only ->
      Xg.Perm_table.set_block sys.System.perms a_victim Perm.Read_only;
      get a_victim Xg_iface.Get_m;
      run_engine ()
  | Put_without_block ->
      get a_victim (Xg_iface.Put_m (Data.token 666));
      run_engine ()
  | Double_get ->
      get a_victim Xg_iface.Get_s;
      get a_victim Xg_iface.Get_s;
      run_engine ()
  | Wrong_response_type | Silent_on_invalidate ->
      (* Setup: legitimately acquire the block exclusively... *)
      get a_victim Xg_iface.Get_m;
      run_engine ();
      assert (script.grants <> []);
      (* ...then set the misbehaviour policy and have a CPU pull the block. *)
      script.inv_policy <-
        (fun _ ->
          match scenario with
          | Wrong_response_type -> Some Xg_iface.Inv_ack
          | _ -> None);
      ignore (cpu_roundtrip sys 0 a_victim 1234)
  | Unsolicited_response ->
      send (Xg_iface.To_xg_resp { addr = a_victim; resp = Xg_iface.Dirty_wb (Data.token 7) });
      run_engine ()
  | Link_dead ->
      (* Acquire the block exclusively, then the wire goes dark: the guard's
         Invalidate is lost on every retransmission round, faults escalate
         and the accelerator is quarantined; the CPU's store completes from
         the quarantine drain (zeroed-writeback substitution). *)
      get a_victim Xg_iface.Get_m;
      run_engine ();
      assert (script.grants <> []);
      Xg_iface.Link.cut_wire sys.System.guards.(0).System.g_link;
      ignore (cpu_roundtrip sys 0 a_victim 1234)
  | Recovery_rejoin | Repeated_quarantine_permakill ->
      (* Same dark-wire quarantine as [Link_dead], but the recovery policy
         splices the wire back during the reset handshake and re-admits the
         accelerator; running to quiescence covers the probation window. *)
      get a_victim Xg_iface.Get_m;
      run_engine ();
      assert (script.grants <> []);
      Xg_iface.Link.cut_wire sys.System.guards.(0).System.g_link;
      ignore (cpu_roundtrip sys 0 a_victim 1234);
      run_engine ();
      if scenario = Repeated_quarantine_permakill then begin
        (* Back in service: re-acquire, then the wire dies a second time —
           that quarantine exhausts the two recovery lives. *)
        get a_victim Xg_iface.Get_m;
        run_engine ();
        Xg_iface.Link.cut_wire sys.System.guards.(0).System.g_link;
        ignore (cpu_roundtrip sys 0 a_victim 4321)
      end
  | Tarpit_budget ->
      (* Acquire exclusively, then answer the CPU-triggered Invalidate
         correctly but 600 cycles late: over the 100-cycle inv→ack budget,
         far under the 4000-cycle G2c deadline.  The budget trip quarantines
         (threshold 1) and the drain answers the host; the late InvAck lands
         on a quarantined guard and is dropped. *)
      get a_victim Xg_iface.Get_m;
      run_engine ();
      assert (script.grants <> []);
      script.inv_delay <- 600;
      ignore (cpu_roundtrip sys 0 a_victim 1234));
  run_engine ();
  (* Recovery probe: can the accelerator transact again?  Must succeed after
     a rejoin, must keep failing after a permakill or plain quarantine. *)
  let accel_live_after =
    match scenario with
    | Recovery_rejoin | Repeated_quarantine_permakill | Tarpit_budget ->
        let before = List.length script.grants in
        get (Addr.block 7) Xg_iface.Get_s;
        run_engine ();
        List.length script.grants > before
    | _ -> false
  in
  let kind = expected_kind scenario in
  let detected = Xg.Os_model.count_of sys.System.os kind > 0 in
  (* Host liveness: traffic to the affected block and an unrelated block. *)
  let live_affected = cpu_roundtrip sys 0 a_victim 5555 in
  let live_unrelated = cpu_roundtrip sys 1 a_unrelated 6666 in
  let sum_guards f =
    Array.fold_left (fun acc g -> acc + f g.System.g_core) 0 sys.System.guards
  in
  {
    scenario;
    expected_kind = kind;
    detected;
    host_live = live_affected && live_unrelated;
    errors_logged = Xg.Os_model.error_count sys.System.os;
    quarantined = sys.System.quarantined ();
    os_quarantined = Xg.Os_model.quarantined sys.System.os;
    rejoins = sum_guards Xg.Xg_core.rejoins;
    permakilled =
      Array.exists (fun g -> Xg.Xg_core.permakilled g.System.g_core) sys.System.guards;
    budget_trips = sum_guards Xg.Xg_core.budget_trips;
    g2c_timeouts = Xg.Os_model.count_of sys.System.os Xg.Os_model.Response_timeout;
    accel_live_after;
    coverage_sets = sys.System.coverage_sets ();
  }

let run_all cfg = List.map (run cfg) all_scenarios
