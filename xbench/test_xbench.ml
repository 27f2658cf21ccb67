(* The benchmark's own checks, at smoke scale:
   - fidelity: the kernels workload reproduces Perf_runner.run, and the
     topo4 workload reproduces Pdes.run_stress;
   - determinism: sim_digest repeats per seed, moves with the seed (except
     the exhaustive check), and ignores tracing and the PDES worker count;
   - the metric names and units every workload prints are BENCHMARK.json's;
   - every correctness check trips on an injected fault. *)

open Xbench_lib
module W = Workloads
module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Json = Xguard_obs.Json

let benchmark_json = "../BENCHMARK.json"
let baseline = "../MODEL_BASELINE.json"

let ctx ?(seed = 1) ?(workers = 1) () =
  {
    W.scale = W.Smoke;
    seed;
    tr = Tracer.create ~on:false;
    accel_port = None;
    host_port = None;
    workers;
    armed = false;
    baseline;
  }

let rep ?(seed = 1) ?variant wl =
  let variant = Option.value ~default:(Runner.default_variant wl) variant in
  Runner.run_rep ~baseline wl ~scale:W.Smoke ~seed variant

let workload name = Option.get (W.find name)

(* ---- fidelity ---- *)

let kernels_match_perf_runner () =
  List.iter
    (fun base ->
      List.iter
        (fun (wl : Xguard_workload.Workload.t) ->
          let cfg = { base with Config.seed = 5 } in
          let expect = Xguard_harness.Perf_runner.run cfg wl in
          let got = W.kernel_job (ctx ()) (W.tally ()) ~job:0 ~seed:5 wl base in
          let what = wl.Xguard_workload.Workload.name ^ " " ^ Config.name cfg in
          Alcotest.(check int) (what ^ " cycles") expect.Xguard_harness.Perf_runner.cycles
            got.W.k_cycles;
          Alcotest.(check int) (what ^ " accesses") expect.Xguard_harness.Perf_runner.accel_accesses
            got.W.k_accel_accesses)
        (W.kernel_set W.Smoke))
    [
      Config.make Config.Hammer (Config.Xg_one_level Config.Transactional);
      Config.make Config.Mesi (Config.Xg_two_level Config.Full_state);
    ]

let topo4_matches_run_stress () =
  let cfg =
    match Xguard_harness.Topology.of_string W.topo4_spec with
    | Ok topo -> { (Config.stress_sized (Config.of_topology topo)) with Config.seed = 9 }
    | Error e -> Alcotest.fail e
  in
  let _, expect = Xguard_harness.Pdes.run_stress ~workers:1 ~seed:9 ~ops_per_core:80 cfg in
  let got = W.topo4_job (ctx ()) (W.tally ()) ~job:0 ~seed:9 ~ops_per_core:80 in
  Alcotest.(check int) "ops" expect.Xguard_harness.Random_tester.ops_completed
    got.Xguard_harness.Random_tester.ops_completed;
  Alcotest.(check int) "cycles" expect.Xguard_harness.Random_tester.cycles
    got.Xguard_harness.Random_tester.cycles

(* ---- determinism ---- *)

let digests_repeat_and_move () =
  List.iter
    (fun (wl : W.workload) ->
      let a = rep wl and b = rep wl and c = rep ~seed:2 wl in
      Alcotest.(check int) (wl.W.name ^ " passes") 0 a.Runner.tally.W.failed;
      Alcotest.(check string) (wl.W.name ^ " same seed") a.Runner.digest b.Runner.digest;
      if wl.W.name = "check" then
        Alcotest.(check string) "check ignores the seed" a.Runner.digest c.Runner.digest
      else if a.Runner.digest = c.Runner.digest then
        Alcotest.failf "%s: seed 2 gives seed 1's digest" wl.W.name)
    W.all

let digest_ignores_tracing_and_workers () =
  let wl = workload "topo4" in
  let base = Runner.default_variant wl in
  let d v = (rep ~variant:v wl).Runner.digest in
  let one = d { base with Runner.workers = 1 } in
  Alcotest.(check string) "workers 1 vs 2" one (d { base with Runner.workers = 2 });
  Alcotest.(check string) "traced" one (d { base with Runner.workers = 1; traced = true });
  (* Arming observers is not invisible: the armed sampler's last tick
     stretches the final clock, so recovery's cycles and availability move. *)
  let rwl = workload "recovery" in
  let rbase = Runner.default_variant rwl in
  let armed = rep rwl and unarmed = rep ~variant:{ rbase with Runner.armed = false } rwl in
  Alcotest.(check string) "recovery traced" armed.Runner.digest
    (rep ~variant:{ rbase with Runner.traced = true } rwl).Runner.digest;
  let o =
    { Runner.workload = rwl; seed = 1; warmup = armed; reps = [ armed; unarmed ]; base = rbase }
  in
  Alcotest.(check int) "armed and unarmed repetitions both pass" 0 (Runner.failed o)

(* ---- metric names ---- *)

let declared key =
  let text = In_channel.with_open_bin benchmark_json In_channel.input_all in
  match Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok j -> Json.to_list (Option.value ~default:Json.Null (Json.member key j))

let str k j = Option.get (Option.bind (Json.member k j) Json.to_string_opt)

let registry_matches_benchmark_json () =
  let names_units ms = List.map (fun (m : Report.metric) -> (m.Report.name, m.Report.unit_)) ms in
  let json_names_units key = List.map (fun j -> (str "name" j, str "unit" j)) (declared key) in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (json_names_units "end_to_end") (names_units Report.end_to_end);
  Alcotest.(check (list (pair string string)))
    "per_layer" (json_names_units "per_layer") (names_units Report.per_layer);
  List.iter2
    (fun j (m : Report.metric) ->
      Alcotest.(check string) (m.Report.name ^ " better") (str "better" j)
        (Report.better_to_string m.Report.better);
      Alcotest.(check (option (float 1e-9))) (m.Report.name ^ " bound")
        (Option.bind (Json.member "bound" j) Json.to_float_opt)
        m.Report.bound)
    (declared "end_to_end") Report.end_to_end;
  Alcotest.(check (list string)) "workloads"
    (List.map (str "name") (declared "workloads"))
    (List.map (fun (w : W.workload) -> w.W.name) W.all)

let every_workload_prints_the_declared_metrics () =
  List.iter
    (fun (wl : W.workload) ->
      let base = Runner.default_variant wl in
      let reps = List.map (fun v -> rep ~variant:v wl) (Runner.trace_variants wl) in
      let o = { Runner.workload = wl; seed = 1; warmup = List.hd reps; reps; base } in
      let line values =
        Report.result_line ~correct:true ~attempted:1 ~failed:0
          (List.map (fun ((m : Report.metric), v) -> (m, v)) values)
      in
      let keys_of values =
        match Json.of_string (line values) with
        | Ok j ->
            Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
              (List.map fst (Json.fields j));
            List.map
              (fun (k, v) -> (k, str "unit" v))
              (Json.fields (Option.get (Json.member "metrics" j)))
        | Error e -> Alcotest.fail e
      in
      let e2e = List.map (fun (m, xs) -> (m, Report.summarize m xs)) (Runner.e2e_samples o) in
      Alcotest.(check (list (pair string string)))
        (wl.W.name ^ " trace 0")
        (List.map (fun j -> (str "name" j, str "unit" j)) (declared "end_to_end"))
        (keys_of e2e);
      Alcotest.(check (list (pair string string)))
        (wl.W.name ^ " trace 1")
        (List.map (fun j -> (str "name" j, str "unit" j)) (declared "per_layer"))
        (keys_of (Runner.per_layer_values o));
      List.iter
        (fun ((m : Report.metric), v) ->
          if not (v > 0.) then Alcotest.failf "%s: %s is %g" wl.W.name m.Report.name v)
        e2e)
    W.all

(* ---- failure detection ---- *)

let tampered_baseline_fails_check () =
  let text = In_channel.with_open_bin baseline In_channel.input_all in
  (* Zero the first states_md5 in the file. *)
  let key = "\"states_md5\": \"" in
  let rec find i =
    if i + String.length key > String.length text then Alcotest.fail "no states_md5 in baseline"
    else if String.sub text i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let i = find 0 in
  let tampered =
    String.sub text 0 i ^ String.make 32 '0' ^ String.sub text (i + 32) (String.length text - i - 32)
  in
  let path = Filename.temp_file "xbench" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc tampered);
  let t = W.tally () in
  W.check { (ctx ()) with W.baseline = path } t;
  Sys.remove path;
  if t.W.failed = 0 then Alcotest.fail "tampered baseline not detected";
  let t = W.tally () in
  W.check { (ctx ()) with W.baseline = "no-such-baseline.json" } t;
  if t.W.failed = 0 then Alcotest.fail "missing baseline not detected"

let muted_fuzz_faults_fail () =
  let module Fuzz = Xguard_harness.Fuzz_tester in
  (* The `fuzz --mute` shape: the accelerator never answers an invalidation.
     The guard's G2c timeout is always armed, so a huge timeout delays the
     defense rather than removing it; the deadlock and crash verdicts are
     therefore fed variants of a real outcome. *)
  let run pool =
    Fuzz.run
      { (Config.make Config.Hammer (Config.Xg_one_level Config.Full_state)) with Config.seed = 3 }
      ~pool ~cpu_ops:50 ~respond_probability:0.0 ~requests_only:true ()
  in
  let failed o =
    let t = W.tally () in
    W.fuzz_verdict t ~label:"muted" o;
    t.W.failed
  in
  let clean = run Fuzz.Shared_ro in
  Alcotest.(check int) "Shared_ro passes" 0 (failed clean);
  (* With write permission the accelerator may legitimately clobber CPU
     data, which the Shared_ro check must flag. *)
  if failed (run Fuzz.Shared_rw) = 0 then Alcotest.fail "CPU data errors not detected";
  if failed { clean with Fuzz.deadlocked = true } = 0 then Alcotest.fail "deadlock not detected";
  if failed { clean with Fuzz.cpu_ops_completed = clean.Fuzz.cpu_ops_expected - 1 } = 0 then
    Alcotest.fail "incomplete CPU ops not detected";
  if
    failed
      { clean with Fuzz.crashed = Some { Fuzz.exn_text = "boom"; seed = 3; trace_tail = [] } }
    = 0
  then Alcotest.fail "crash not detected"

let data_error_fails_tester () =
  let sys = System.build (Config.stress_sized (Config.make Config.Hammer (Config.Xg_one_level Config.Full_state))) in
  let clean =
    {
      Xguard_harness.Random_tester.ops_completed = 10;
      data_errors = 0;
      deadlocked = false;
      cycles = 1;
      first_error_addr = None;
      ops_per_port = [||];
    }
  in
  let verdict o =
    let t = W.tally () in
    W.tester_verdict (ctx ()) t ~label:"fake" ~attempted:10 ~drained:true o sys;
    t.W.failed
  in
  Alcotest.(check int) "clean outcome" 0 (verdict clean);
  if verdict { clean with data_errors = 1; first_error_addr = Some 0 } = 0 then
    Alcotest.fail "data error not detected";
  if verdict { clean with deadlocked = true } = 0 then Alcotest.fail "deadlock not detected"

let digest_mismatch_fails () =
  let wl = workload "stress" in
  let a = rep wl and b = rep ~seed:2 wl in
  let o = { Runner.workload = wl; seed = 1; warmup = a; reps = [ a; b ]; base = Runner.default_variant wl } in
  if Runner.failed o = 0 then Alcotest.fail "nondeterministic repetitions not detected"

(* ---- statistics ---- *)

let quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Report.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3

let compare_verdicts () =
  let wall = Option.get (Report.find "wall_s") in
  let around c = List.init 10 (fun i -> c +. (0.01 *. float_of_int i)) in
  let v a b = let v, _, _ = Report.judge wall ~a ~b in v in
  Alcotest.(check string) "regressed" "REGRESSED"
    (Report.verdict_to_string (v (around 1.0) (around 1.3)));
  Alcotest.(check string) "better" "better" (Report.verdict_to_string (v (around 1.0) (around 0.8)));
  Alcotest.(check string) "unchanged" "unchanged"
    (Report.verdict_to_string (v (around 1.0) (around 1.0)))

let () =
  Alcotest.run "xbench"
    [
      ( "fidelity",
        [
          Alcotest.test_case "kernels = Perf_runner.run" `Quick kernels_match_perf_runner;
          Alcotest.test_case "topo4 = Pdes.run_stress" `Quick topo4_matches_run_stress;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "digest per seed" `Quick digests_repeat_and_move;
          Alcotest.test_case "digest vs tracing, workers, arming" `Quick
            digest_ignores_tracing_and_workers;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry = BENCHMARK.json" `Quick registry_matches_benchmark_json;
          Alcotest.test_case "every workload prints them" `Quick
            every_workload_prints_the_declared_metrics;
          Alcotest.test_case "quartiles as Python's" `Quick quartiles_match_python;
          Alcotest.test_case "compare verdicts" `Quick compare_verdicts;
        ] );
      ( "failure detection",
        [
          Alcotest.test_case "tampered checker baseline" `Quick tampered_baseline_fails_check;
          Alcotest.test_case "muted fuzz faults" `Quick muted_fuzz_faults_fail;
          Alcotest.test_case "tester data error" `Quick data_error_fails_tester;
          Alcotest.test_case "nondeterministic digest" `Quick digest_mismatch_fails;
        ] );
    ]
