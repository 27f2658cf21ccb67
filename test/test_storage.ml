(* Guard storage accounting.  [Xg_core.storage_bits] is a running total that
   every change of a track, its trusted copy or a transaction slot keeps up
   to date; after every event it must equal [recount_storage_bits], the fold
   over the tables it replaced.  Checked on every guarded configuration under
   the random tester, under chaos fuzz, and through quarantine, reset and
   rejoin. *)

module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Tester = Xguard_harness.Random_tester
module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Core = Xguard_xg.Xg_core
module Chaos = Xguard_accel.Chaos_accel
module Fault = Xguard_network.Network.Fault

let agree label (sys : System.t) =
  Array.iter
    (fun (g : System.guard) ->
      let running = Core.storage_bits g.System.g_core in
      let fold = Core.recount_storage_bits g.System.g_core in
      if running <> fold then
        Alcotest.failf "%s: cycle %d: running storage %d bits, fold %d" label
          (Engine.now sys.System.engine) running fold)
    sys.System.guards

(* Fire events one at a time until the queue drains, checking after each. *)
let step_all label (sys : System.t) =
  let rec go n =
    agree label sys;
    if n >= 5_000_000 then Alcotest.failf "%s: not drained after %d events" label n;
    match Engine.run ~max_events:1 sys.System.engine with
    | Engine.Hit_event_limit -> go (n + 1)
    | _ -> ()
  in
  go 0

let guarded () = List.filter Config.uses_xg (Config.all_configurations ())

let test_tester () =
  List.iter
    (fun cfg ->
      let sys = System.build (Config.stress_sized { cfg with Config.seed = 1 }) in
      ignore
        (Tester.prepare ~engine:sys.System.engine ~rng:(Rng.create ~seed:2)
           ~ports:(Array.append sys.System.cpu_ports sys.System.accel_ports)
           ~addresses:(Array.init 6 Addr.block) ~ops_per_core:200 ());
      step_all (Config.name cfg) sys)
    (guarded ())

(* The chaos accelerator on guard 0's link, as [Fuzz_tester] wires its
   [Shared_ro] pool: the CPUs run checked traffic on blocks the accelerator
   may only read. *)
let chaos sys (cfg : Config.t) =
  let g0 = sys.System.guards.(0) in
  let addresses = Array.init 6 Addr.block in
  Array.iter
    (fun a -> Xguard_xg.Perm_table.set_block sys.System.perms a Perm.Read_only)
    addresses;
  ignore
    (Chaos.create ~engine:sys.System.engine
       ~rng:(Rng.create ~seed:((cfg.Config.seed * 31) + 7))
       ~link:g0.System.g_link ~self:g0.System.g_accel_node ~xg:g0.System.g_xg_node
       ~addresses ~duration:15_000 ());
  ignore
    (Tester.prepare ~engine:sys.System.engine
       ~rng:(Rng.create ~seed:(cfg.Config.seed + 5))
       ~ports:sys.System.cpu_ports ~addresses ~ops_per_core:100 ())

let test_chaos () =
  List.iter
    (fun cfg ->
      let cfg = Config.stress_sized { cfg with Config.seed = 1 } in
      let sys = System.build ~attach_accel:false cfg in
      chaos sys cfg;
      step_all (Config.name cfg ^ " under chaos") sys)
    (guarded ())

(* A wire cut at the 120th link message under a recovery policy: the guard
   quarantines, resets the link and re-admits the accelerator. *)
let test_recovery () =
  let cfg =
    {
      (Config.stress_sized
         {
           (Config.make Config.Hammer (Config.Xg_one_level Config.Transactional)) with
           Config.seed = 2;
         })
      with
      Config.link_faults = Some Fault.zero;
      link_fault_scripts = [ { Fault.nth = 120; needle = None; kind = Fault.Kill } ];
      link_retry_timeout = 16;
      link_max_retries = 2;
      quarantine_after = 2;
      recovery =
        Some
          (Core.make_recovery ~reset_delay:100 ~reset_timeout:32 ~reset_attempts:4
             ~probation_window:400 ~probation_rate:0.5 ~probation_burst:4
             ~probation_quarantine_after:2 ~permakill_after:4 ());
    }
  in
  let sys = System.build ~attach_accel:false cfg in
  chaos sys cfg;
  step_all "kill@120 + recovery" sys;
  let core = sys.System.guards.(0).System.g_core in
  Alcotest.(check bool) "quarantined at least once" true (Core.quarantine_count core >= 1);
  Alcotest.(check bool) "rejoined at least once" true (Core.rejoins core >= 1)

let tests =
  [
    ( "xg-storage",
      [
        Alcotest.test_case "running total = fold, 8 guarded configs" `Quick test_tester;
        Alcotest.test_case "running total = fold under chaos fuzz" `Quick test_chaos;
        Alcotest.test_case "running total = fold through quarantine and rejoin" `Quick
          test_recovery;
      ] );
  ]
