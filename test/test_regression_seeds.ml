(* Seeded regression suite: fixed seeds replayed through the random tester and
   the fuzzer on representative configurations.  Any failure is reproducible
   by construction — the assertion message carries the seed and the armed
   trace buffer's per-address event trail, which is exactly the forensics
   workflow ("--trace" on the CLI) exercised end to end. *)

module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Tester = Xguard_harness.Random_tester
module Fuzz = Xguard_harness.Fuzz_tester
module Trace = Xguard_trace.Trace
module Rng = Xguard_sim.Rng
module Xg = Xguard_xg
module Network = Xguard_network.Network
module Fault = Network.Fault

let seeds = [ 1; 7; 1234 ]

let stress_configs =
  [
    Config.make Config.Hammer (Config.Xg_one_level Config.Full_state);
    Config.make Config.Hammer (Config.Xg_one_level Config.Transactional);
    Config.make Config.Mesi (Config.Xg_one_level Config.Full_state);
    Config.make Config.Mesi (Config.Xg_one_level Config.Transactional);
    Config.make Config.Hammer (Config.Xg_two_level Config.Transactional);
    Config.make Config.Mesi (Config.Xg_two_level Config.Full_state);
  ]

let fuzz_configs =
  [
    Config.make Config.Hammer (Config.Xg_one_level Config.Full_state);
    Config.make Config.Hammer (Config.Xg_one_level Config.Transactional);
    Config.make Config.Mesi (Config.Xg_one_level Config.Full_state);
    Config.make Config.Mesi (Config.Xg_one_level Config.Transactional);
  ]

let trail ?addr tr =
  let d = Trace.dump ?addr ~last:40 tr in
  if d = "" then "(no trace events)" else d

let stress_one cfg seed =
  let cfg = Config.stress_sized { cfg with Config.seed = seed } in
  let label = Config.name cfg in
  let sys = System.build cfg in
  let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
  let tr = Trace.create ~capacity:4096 () in
  let o =
    Xguard_obs.Obs.with_trace tr (fun () ->
        Tester.run ~engine:sys.System.engine
          ~rng:(Rng.create ~seed:(seed * 7 + 1))
          ~ports ~addresses:(Array.init 6 Addr.block) ~ops_per_core:300 ())
  in
  if o.Tester.deadlocked then
    Alcotest.failf "%s seed %d: deadlocked after %d ops; trail:\n%s" label seed
      o.Tester.ops_completed (trail tr);
  if o.Tester.data_errors > 0 then
    Alcotest.failf "%s seed %d: %d data errors (first at %s); trail:\n%s" label seed
      o.Tester.data_errors
      (match o.Tester.first_error_addr with
      | Some a -> Printf.sprintf "0x%x" a
      | None -> "?")
      (trail ?addr:o.Tester.first_error_addr tr);
  let viol = Xg.Os_model.error_count sys.System.os in
  if viol > 0 then
    Alcotest.failf "%s seed %d: %d guard violations from legitimate caches; trail:\n%s" label
      seed viol (trail tr)

let fuzz_one cfg seed =
  let cfg = Config.stress_sized { cfg with Config.seed = seed } in
  let label = Config.name cfg in
  let tr = Trace.create ~capacity:4096 () in
  let o =
    Xguard_obs.Obs.with_trace tr (fun () ->
        Fuzz.run cfg ~pool:Fuzz.Disjoint ~cpu_ops:150 ~chaos_duration:20_000 ())
  in
  (match o.Fuzz.crashed with
  | Some c ->
      Alcotest.failf "%s seed %d: crashed: %s; trail:\n%s" label c.Fuzz.seed c.Fuzz.exn_text
        (String.concat "\n" (List.map Trace.format_event c.Fuzz.trace_tail))
  | None -> ());
  if o.Fuzz.deadlocked then
    Alcotest.failf "%s seed %d: deadlocked; trail:\n%s" label o.Fuzz.seed
      (String.concat "\n" (List.map Trace.format_event o.Fuzz.trace_tail));
  if o.Fuzz.cpu_data_errors > 0 then
    Alcotest.failf "%s seed %d: %d CPU data errors on a disjoint pool; trail:\n%s" label
      o.Fuzz.seed o.Fuzz.cpu_data_errors
      (String.concat "\n" (List.map Trace.format_event o.Fuzz.trace_tail))

let test_stress_seeds () =
  List.iter (fun cfg -> List.iter (stress_one cfg) seeds) stress_configs

let test_fuzz_seeds () =
  List.iter (fun cfg -> List.iter (fuzz_one cfg) seeds) fuzz_configs

(* ---- lossy-link regression seeds (PR 3) ----

   Pinned from a tools/fault_sweep.exe run over seeds 1..8: each seed/fault
   pair below demonstrably exercises one recovery path of the reliability
   layer while the run stays safe on a disjoint pool.  If a change stops the
   path from firing — or makes the faulty run unsafe — the assertion names
   the seed that replays it. *)

let lossy_base = Config.make Config.Hammer (Config.Xg_one_level Config.Transactional)

let lossy_cfg ~seed faults scripts =
  {
    (Config.stress_sized { lossy_base with Config.seed }) with
    Config.link_faults = Some faults;
    link_fault_scripts = scripts;
    link_retry_timeout = 16;
    link_max_retries = 2;
    quarantine_after = 2;
  }

let lossy_one ~label ~path cfg check_path =
  let o = Fuzz.run cfg ~pool:Fuzz.Disjoint ~cpu_ops:100 ~chaos_duration:15_000 () in
  (match o.Fuzz.crashed with
  | Some c -> Alcotest.failf "%s seed %d: crashed: %s" label o.Fuzz.seed c.Fuzz.exn_text
  | None -> ());
  if o.Fuzz.deadlocked then Alcotest.failf "%s seed %d: deadlocked" label o.Fuzz.seed;
  if o.Fuzz.cpu_data_errors > 0 then
    Alcotest.failf "%s seed %d: %d CPU data errors on a disjoint pool" label o.Fuzz.seed
      o.Fuzz.cpu_data_errors;
  if o.Fuzz.cpu_ops_completed <> o.Fuzz.cpu_ops_expected then
    Alcotest.failf "%s seed %d: only %d/%d CPU ops completed" label o.Fuzz.seed
      o.Fuzz.cpu_ops_completed o.Fuzz.cpu_ops_expected;
  if not (check_path o) then
    Alcotest.failf "%s seed %d: the %s path no longer fires" label o.Fuzz.seed path

let link_count o label = Option.value ~default:0 (List.assoc_opt label o.Fuzz.link_faults)

let test_lossy_retransmit_seed () =
  (* Sweep: seed=2 drop2% -> retx=2298, safe. *)
  lossy_one ~label:"drop 2%" ~path:"retransmission"
    (lossy_cfg ~seed:2 { Fault.zero with Fault.drop = 0.02 } [])
    (fun o -> link_count o "retransmit_frames" > 0 && not o.Fuzz.quarantined)

let test_lossy_dup_suppression_seed () =
  (* Sweep: seed=1 dup2% -> dups=338, safe. *)
  lossy_one ~label:"dup 2%" ~path:"duplicate-suppression"
    (lossy_cfg ~seed:1 { Fault.zero with Fault.duplicate = 0.02 } [])
    (fun o -> link_count o "dups_suppressed" > 0 && not o.Fuzz.quarantined)

let test_lossy_corruption_seed () =
  (* Sweep: seed=5 corrupt2% -> corrupt=134, safe. *)
  lossy_one ~label:"corrupt 2%" ~path:"corruption-detection"
    (lossy_cfg ~seed:5 { Fault.zero with Fault.corrupt = 0.02 } [])
    (fun o -> link_count o "corrupt_detected" > 0 && not o.Fuzz.quarantined)

let test_lossy_quarantine_seed () =
  (* Sweep: seed=3 kill@120 -> escal=2, quarantined, safe. *)
  lossy_one ~label:"kill@120" ~path:"quarantine"
    (lossy_cfg ~seed:3 Fault.zero
       [ { Fault.nth = 120; needle = None; kind = Fault.Kill } ])
    (fun o -> link_count o "faults_escalated" > 0 && o.Fuzz.quarantined)

(* ---- recovery regression seeds (PR 8) ----

   Pinned from the same tools/fault_sweep.exe run, recovery variants: the
   kill scripts cut the wire, the policy resets and re-admits, and the
   asserted path is the full quarantine -> reset -> probation -> rejoin
   lifecycle (or, with one life, the permanent kill). *)

let lossy_recovery ~permakill_after =
  Xg.Xg_core.make_recovery ~reset_delay:100 ~reset_timeout:32 ~reset_attempts:4
    ~probation_window:400 ~probation_rate:0.5 ~probation_burst:4
    ~probation_quarantine_after:2 ~permakill_after ()

let recovery_cfg ~seed ~permakill_after scripts =
  {
    (lossy_cfg ~seed Fault.zero scripts) with
    Config.recovery = Some (lossy_recovery ~permakill_after);
  }

let test_recovery_rejoin_seed () =
  (* Sweep: seed=2 kill@120+rec -> escal=2, rejoins=1, safe. *)
  lossy_one ~label:"kill@120+rec" ~path:"quarantine-and-rejoin"
    (recovery_cfg ~seed:2 ~permakill_after:4
       [ { Fault.nth = 120; needle = None; kind = Fault.Kill } ])
    (fun o -> o.Fuzz.rejoins = 1 && not o.Fuzz.permakilled)

let test_recovery_double_rejoin_seed () =
  (* Sweep: seed=4 kill-x2+rec -> escal=4, rejoins=2, safe: the second kill
     cuts the wire the first recovery spliced. *)
  lossy_one ~label:"kill-x2+rec" ~path:"repeated-rejoin"
    (recovery_cfg ~seed:4 ~permakill_after:4
       [
         { Fault.nth = 120; needle = None; kind = Fault.Kill };
         { Fault.nth = 600; needle = None; kind = Fault.Kill };
       ])
    (fun o -> o.Fuzz.rejoins = 2 && not o.Fuzz.permakilled)

let test_recovery_permakill_seed () =
  (* Sweep: seed=3 kill+1life -> quarantined, rejoins=0, permakill, safe. *)
  lossy_one ~label:"kill+1life" ~path:"permakill"
    (recovery_cfg ~seed:3 ~permakill_after:1
       [ { Fault.nth = 120; needle = None; kind = Fault.Kill } ])
    (fun o -> o.Fuzz.permakilled && o.Fuzz.rejoins = 0 && o.Fuzz.quarantined)

(* ---- model-checker regression seeds (PR 6) ----

   Trails surfaced by `xguard check` during checker development, pinned as
   replays: each previously tripped a (since-fixed) false positive in the
   invariant harness, so the checker itself is the regression subject —
   the replay must now drain to a clean terminal. *)

module Checker = Xguard_check.Checker

let replay_clean ~label plan trail =
  match Checker.replay plan trail with
  | `Terminal, _ -> ()
  | `Violation m, _ -> Alcotest.failf "%s: replay violates again: %s" label m
  | `Incomplete, _ -> Alcotest.failf "%s: replay no longer reaches a terminal" label

let test_check_relinquish_window_seed () =
  (* Provenance: hammer/full all-zeros schedule, no POR — flagged
     "data-value violated at block 1" while the coherent value rode the XG
     port's ownership-relinquishing writeback (§3.2.1 window; fixed by
     Xg_port.check_owner_puts pseudo-entries). *)
  let plan =
    { (List.assoc "hammer/full" (Checker.tiny_plans ())) with Checker.por = false }
  in
  replay_clean ~label:"hammer relinquish window" plan
    [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]

let test_check_root_branch_seed () =
  (* Provenance: the same trail under POR — the root state is itself the
     first decision point (two same-cycle, same-address sequencer pumps),
     which once self-pruned and ended exploration at states=1. *)
  let plan = List.assoc "hammer/full" (Checker.tiny_plans ()) in
  replay_clean ~label:"hammer root decision point" plan
    [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]

let tests =
  [
    ( "regression-seeds",
      [
        Alcotest.test_case "random tester, fixed seeds, all XG organizations" `Quick
          test_stress_seeds;
        Alcotest.test_case "fuzzer, fixed seeds, one-level XG organizations" `Quick
          test_fuzz_seeds;
        Alcotest.test_case "lossy link: retransmission seed" `Quick
          test_lossy_retransmit_seed;
        Alcotest.test_case "lossy link: duplicate-suppression seed" `Quick
          test_lossy_dup_suppression_seed;
        Alcotest.test_case "lossy link: corruption-detection seed" `Quick
          test_lossy_corruption_seed;
        Alcotest.test_case "lossy link: quarantine seed" `Quick
          test_lossy_quarantine_seed;
        Alcotest.test_case "recovery: quarantine-and-rejoin seed" `Quick
          test_recovery_rejoin_seed;
        Alcotest.test_case "recovery: repeated-rejoin seed" `Quick
          test_recovery_double_rejoin_seed;
        Alcotest.test_case "recovery: permakill seed" `Quick
          test_recovery_permakill_seed;
        Alcotest.test_case "checker: ownership-relinquish window replays clean" `Quick
          test_check_relinquish_window_seed;
        Alcotest.test_case "checker: root-decision-point trail replays clean" `Quick
          test_check_root_branch_seed;
      ] );
  ]
