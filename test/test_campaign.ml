(* The parallel campaign layer: pool determinism and crash isolation, the
   mergeable result types, and the headline invariant — campaign output is
   byte-identical for any worker count. *)

module Pool = Xguard_parallel.Pool
module Table = Xguard_stats.Table
module Group = Xguard_stats.Counter.Group
module Coverage = Xguard_trace.Coverage
module Campaign = Xguard_harness.Campaign
module Config = Xguard_harness.Config
module Tester = Xguard_harness.Random_tester
module Fuzz = Xguard_harness.Fuzz_tester
module Fault = Xguard_network.Network.Fault

let config_named name =
  List.find (fun c -> Config.name c = name) (Config.all_configurations ())

(* ---- pool ---- *)

let test_pool_workers_agree () =
  let f i = (i * i) + 1 in
  let serial = Pool.map ~workers:1 ~jobs:40 f in
  let par = Pool.map ~workers:4 ~jobs:40 f in
  Alcotest.(check int) "job count" 40 (Array.length par);
  Array.iteri
    (fun i o ->
      match (o, serial.(i)) with
      | Pool.Done a, Pool.Done b -> Alcotest.(check int) "same result" b a
      | _ -> Alcotest.fail "job unexpectedly failed")
    par

let test_pool_crash_isolation () =
  let f i = if i = 3 then failwith "boom" else i in
  let r = Pool.map ~workers:4 ~jobs:8 f in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Failed msg ->
          Alcotest.(check int) "only job 3 fails" 3 i;
          Alcotest.(check bool)
            "failure carries the exception text" true
            (String.length msg > 0)
      | Pool.Done v -> Alcotest.(check int) "other jobs run" i v)
    r

let test_seed_derivation () =
  let a = Pool.Seed.derive_all ~base:42 ~count:10 in
  let b = Pool.Seed.derive_all ~base:42 ~count:10 in
  Alcotest.(check (array int)) "derivation is deterministic" a b;
  let prefix = Pool.Seed.derive_all ~base:42 ~count:5 in
  Alcotest.(check (array int))
    "shorter campaigns are prefixes of longer ones" prefix (Array.sub a 0 5);
  Array.iteri
    (fun j s ->
      Alcotest.(check int)
        "derive agrees with derive_all" s
        (Pool.Seed.derive ~base:42 ~job:j);
      Alcotest.(check bool) "seeds are non-negative" true (s >= 0))
    a;
  let other = Pool.Seed.derive_all ~base:43 ~count:10 in
  Alcotest.(check bool) "different base, different stream" true (a <> other)

(* ---- mergeable results ---- *)

let mk_table rows =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  List.iter (Table.add_row t) rows;
  t

let test_table_merge () =
  let r1 = [ [ "1"; "x" ]; [ "2"; "y" ] ]
  and r2 = [ [ "3"; "z" ] ]
  and r3 = [ [ "4"; "w" ]; [ "5"; "v" ] ] in
  let t1 = mk_table r1 and t2 = mk_table r2 and t3 = mk_table r3 in
  let serial = mk_table (r1 @ r2 @ r3) in
  let left = Table.merge (Table.merge t1 t2) t3 in
  let right = Table.merge t1 (Table.merge t2 t3) in
  Alcotest.(check string)
    "merge agrees with serial accumulation" (Table.to_string serial)
    (Table.to_string left);
  Alcotest.(check string)
    "merge is associative" (Table.to_string left) (Table.to_string right);
  Alcotest.(check (list (list string)))
    "inputs are not mutated" r1 (Table.rows t1);
  match Table.merge t1 (Table.create ~title:"other" ~columns:[ "a"; "b" ]) with
  | _ -> Alcotest.fail "mismatched titles must be rejected"
  | exception Invalid_argument _ -> ()

let test_coverage_merge () =
  let space =
    Coverage.space ~name:"t" ~states:[ "A"; "B" ] ~events:[ "x"; "y" ] ()
  in
  let mk name cells =
    let g = Group.create name in
    List.iter (fun (k, n) -> Group.add g k n) cells;
    g
  in
  let g1 = mk "g1" [ ("A.x", 3); ("B.y", 1); ("Z.q", 2) ] in
  let g2 = mk "g2" [ ("A.x", 1); ("A.y", 4) ] in
  let g3 = mk "g3" [ ("B.y", 2); ("Z.q", 1) ] in
  let r1 = Coverage.analyze space [ g1 ]
  and r2 = Coverage.analyze space [ g2 ]
  and r3 = Coverage.analyze space [ g3 ] in
  let serial = Coverage.analyze space [ g1; g2; g3 ] in
  let left = Coverage.merge (Coverage.merge r1 r2) r3 in
  let right = Coverage.merge r1 (Coverage.merge r2 r3) in
  let check_same what (a : Coverage.report) (b : Coverage.report) =
    List.iter
      (fun s ->
        List.iter
          (fun e ->
            Alcotest.(check int)
              (Printf.sprintf "%s: count %s.%s" what s e)
              (b.Coverage.count s e) (a.Coverage.count s e))
          space.Coverage.events)
      space.Coverage.states;
    Alcotest.(check int) (what ^ ": covered") b.Coverage.covered a.Coverage.covered;
    Alcotest.(check (list (pair string string)))
      (what ^ ": uncovered") b.Coverage.uncovered a.Coverage.uncovered;
    Alcotest.(check (list (pair string int)))
      (what ^ ": stray") b.Coverage.stray a.Coverage.stray
  in
  check_same "merge vs serial" left serial;
  check_same "associativity" left right;
  Alcotest.(check string)
    "rendered tables agree"
    (Table.to_string (Coverage.to_table serial))
    (Table.to_string (Coverage.to_table left))

let test_tester_merge () =
  let o ops errs dead addr =
    {
      Tester.ops_completed = ops;
      data_errors = errs;
      deadlocked = dead;
      cycles = ops * 2;
      first_error_addr = addr;
      ops_per_port = [| ops / 2; ops - (ops / 2) |];
    }
  in
  let a = o 100 0 false None and b = o 50 2 true (Some 3) and c = o 7 1 false (Some 9) in
  let m = Tester.merge (Tester.merge a b) c in
  Alcotest.(check int) "ops add" 157 m.Tester.ops_completed;
  Alcotest.(check (array int))
    "per-port ops add element-wise" [| 78; 79 |] m.Tester.ops_per_port;
  Alcotest.(check int) "errors add" 3 m.Tester.data_errors;
  Alcotest.(check int) "cycles add" 314 m.Tester.cycles;
  Alcotest.(check bool) "deadlock ORs" true m.Tester.deadlocked;
  Alcotest.(check (option int))
    "leftmost first error wins" (Some 3) m.Tester.first_error_addr;
  let right = Tester.merge a (Tester.merge b c) in
  Alcotest.(check bool) "associative" true (m = right)

let test_fuzz_merge_agrees_with_sums () =
  let run seed =
    Fuzz.run
      { (config_named "hammer/xg-trans-1lvl") with Config.seed = seed }
      ~cpu_ops:30 ~chaos_duration:3_000 ()
  in
  let a = run 11 and b = run 12 in
  let m = Fuzz.merge a b in
  Alcotest.(check int)
    "chaos messages add"
    (a.Fuzz.chaos_messages + b.Fuzz.chaos_messages)
    m.Fuzz.chaos_messages;
  Alcotest.(check int)
    "cpu ops add"
    (a.Fuzz.cpu_ops_completed + b.Fuzz.cpu_ops_completed)
    m.Fuzz.cpu_ops_completed;
  Alcotest.(check int)
    "violations add" (a.Fuzz.violations + b.Fuzz.violations) m.Fuzz.violations;
  Alcotest.(check int)
    "by-kind counts add up to the total" m.Fuzz.violations
    (List.fold_left (fun n (_, c) -> n + c) 0 m.Fuzz.violations_by_kind);
  Alcotest.(check int) "left seed is the replay handle" a.Fuzz.seed m.Fuzz.seed

(* ---- regressions ---- *)

(* Campaign-surfaced put race: a core-initiated "unnecessary PutS" and the
   port's ownership relinquishment overlapping on one block used to overwrite
   each other's writeback record in Xg_port, losing the core's completion —
   the guard wedged in B_put and the run deadlocked.  Puts are now deferred
   behind each other like gets behind puts. *)
let test_put_race_deadlock_fixed () =
  let cfg =
    { (config_named "hammer/xg-trans-2lvl") with Config.seed = 3642808914686572125 }
  in
  let o = Fuzz.run cfg ~cpu_ops:300 () in
  Alcotest.(check bool) "no deadlock" false o.Fuzz.deadlocked;
  Alcotest.(check bool) "no crash" true (o.Fuzz.crashed = None);
  Alcotest.(check int)
    "every cpu op completes" o.Fuzz.cpu_ops_expected o.Fuzz.cpu_ops_completed

let test_campaign_stress_j_invariance () =
  let configs =
    List.filteri (fun i _ -> i < 3) (Config.all_configurations ())
  in
  let run w =
    Campaign.run ~workers:w ~stress_ops:60 ~seeding:(Campaign.Derived 9) Campaign.Stress
      ~configs ~seeds:3 ()
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check int)
    "job count" (Campaign.job_count Campaign.Stress ~configs ~seeds:3) r1.Campaign.jobs;
  Alcotest.(check string)
    "-j 4 output equals -j 1" (Campaign.render r1) (Campaign.render r4)

let test_campaign_both_j_invariance () =
  let configs = [ config_named "hammer/xg-trans-1lvl" ] in
  let render w =
    Campaign.render
      (Campaign.run ~workers:w ~collect_coverage:true ~stress_ops:60
         ~fuzz_cpu_ops:60 ~seeding:(Campaign.Derived 7) Campaign.Both ~configs ~seeds:1
         ())
  in
  let r1 = render 1 in
  Alcotest.(check string) "-j 2 output equals -j 1" r1 (render 2);
  Alcotest.(check string) "-j 4 output equals -j 1" r1 (render 4)

(* Every campaign job replays alone: a lossy, recovering campaign's derived
   seeds, each re-run as the one-seed sweep `xguard stress --seed S --seeds 1`
   performs, reproduce the job exactly — ops, cycles, link counters,
   recovery lifecycle and coverage. *)
let test_campaign_jobs_replay () =
  let cfg =
    {
      (config_named "hammer/xg-trans-1lvl") with
      Config.link_faults = Some { Fault.zero with Fault.drop = 0.05 };
      recovery = Some (Xguard_xg.Xg_core.make_recovery ());
    }
  in
  let sweep seeding seeds =
    Campaign.run ~collect_coverage:true ~stress_ops:200 ~seeding Campaign.Stress
      ~configs:[ cfg ] ~seeds ()
  in
  let stressed (o : Campaign.outcome) =
    match o.Campaign.run with
    | Campaign.Stressed r -> r
    | _ -> Alcotest.failf "job seed %d did not complete" o.Campaign.seed
  in
  let coverage (r : Campaign.stress_run) =
    List.map
      (fun (name, space, groups) ->
        (name, Coverage.to_string (Coverage.analyze space groups)))
      r.Campaign.coverage
  in
  let campaign = sweep (Campaign.Derived 42) 3 in
  Array.iter
    (fun (o : Campaign.outcome) ->
      let job = stressed o in
      let replay =
        stressed (sweep (Campaign.Consecutive o.Campaign.seed) 1).Campaign.outcomes.(0)
      in
      let what = Printf.sprintf "seed %d: %s" o.Campaign.seed in
      let t = job.Campaign.tester and t' = replay.Campaign.tester in
      Alcotest.(check int) (what "ops") t.Tester.ops_completed t'.Tester.ops_completed;
      Alcotest.(check int) (what "cycles") t.Tester.cycles t'.Tester.cycles;
      Alcotest.(check (list (pair string int)))
        (what "link counters") job.Campaign.link_faults replay.Campaign.link_faults;
      Alcotest.(check int) (what "rejoins") job.Campaign.rejoins replay.Campaign.rejoins;
      Alcotest.(check (list (pair string string)))
        (what "coverage") (coverage job) (coverage replay))
    campaign.Campaign.outcomes;
  Alcotest.(check bool)
    "the link really faulted" true
    (Array.exists
       (fun o -> fst (Campaign.link_totals (stressed o).Campaign.link_faults) > 0)
       campaign.Campaign.outcomes)

(* A topology prefixes each guard's link counters with its id
   ("a0.injected.drop"); the totals on the stress line and in the campaign
   table still sum every guard's. *)
let test_topology_link_totals () =
  Alcotest.(check (pair int int))
    "prefixed counters" (5, 12)
    (Campaign.link_totals
       [ ("a0.injected.drop", 3); ("a0.retransmit_frames", 5); ("a1.injected.dup", 2);
         ("a1.gaps_detected", 9); ("a1.retransmit_frames", 7) ]);
  Alcotest.(check (pair int int))
    "unprefixed counters" (2, 4)
    (Campaign.link_totals [ ("injected.drop", 2); ("gaps_detected", 1); ("retransmit_frames", 4) ]);
  let topo =
    match Xguard_harness.Topology.of_string "hammer;a0=trans,cached;a1=full,cached" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let cfg =
    { (Config.of_topology topo) with
      Config.link_faults = Some { Fault.zero with Fault.drop = 0.05; max_delay = 32 } }
  in
  let r =
    Campaign.run ~stress_ops:100 ~seeding:(Campaign.Consecutive 42) Campaign.Stress
      ~configs:[ cfg ] ~seeds:1 ()
  in
  match r.Campaign.outcomes.(0).Campaign.run with
  | Campaign.Stressed s ->
      let injected, retx = Campaign.link_totals s.Campaign.link_faults in
      Alcotest.(check bool) "every guard's faults counted" true (injected > 0 && retx > 0);
      let sum prefix =
        List.fold_left
          (fun n (k, v) -> if String.starts_with ~prefix k then n + v else n)
          0 s.Campaign.link_faults
      in
      Alcotest.(check int) "sum of both guards' drops" (sum "a0.injected." + sum "a1.injected.")
        injected
  | _ -> Alcotest.fail "stress job expected"

let tests =
  [
    ( "campaign",
      [
        Alcotest.test_case "pool: workers agree with serial" `Quick
          test_pool_workers_agree;
        Alcotest.test_case "pool: crash isolation" `Quick test_pool_crash_isolation;
        Alcotest.test_case "pool: seed derivation" `Quick test_seed_derivation;
        Alcotest.test_case "table merge" `Quick test_table_merge;
        Alcotest.test_case "coverage merge" `Quick test_coverage_merge;
        Alcotest.test_case "tester outcome merge" `Quick test_tester_merge;
        Alcotest.test_case "fuzz outcome merge" `Slow test_fuzz_merge_agrees_with_sums;
        Alcotest.test_case "put race deadlock fixed" `Slow
          test_put_race_deadlock_fixed;
        Alcotest.test_case "campaign stress -j invariance" `Slow
          test_campaign_stress_j_invariance;
        Alcotest.test_case "campaign both -j invariance" `Slow
          test_campaign_both_j_invariance;
        Alcotest.test_case "campaign jobs replay alone" `Slow test_campaign_jobs_replay;
        Alcotest.test_case "topology link totals" `Quick test_topology_link_totals;
      ] );
  ]
