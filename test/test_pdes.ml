(* The sharded parallel simulator (Pdes): worker-team mechanics, eligibility
   gating, and the hard invariant — byte-identical results and observability
   artifacts (trace dumps, span timelines) for every worker count, on fixed
   and QCheck-random topologies. *)

module Engine = Xguard_sim.Engine
module Config = Xguard_harness.Config
module Topology = Xguard_harness.Topology
module System = Xguard_harness.System
module Pdes = Xguard_harness.Pdes
module Tester = Xguard_harness.Random_tester
module Perf = Xguard_harness.Perf_runner
module Team = Xguard_parallel.Team
module Trace = Xguard_trace.Trace
module Spans = Xguard_obs.Spans
module Perfetto = Xguard_obs.Perfetto
module W = Xguard_workload.Workload

(* ---- worker team ------------------------------------------------------- *)

let test_team_rounds () =
  Team.with_team ~workers:3 (fun team ->
      Alcotest.(check int) "size" 3 (Team.size team);
      let hits = Array.make 3 0 in
      Team.round team (fun slot -> hits.(slot) <- hits.(slot) + 1);
      Team.round team (fun slot -> hits.(slot) <- hits.(slot) + 1);
      Alcotest.(check (list int)) "every slot ran each round" [ 2; 2; 2 ]
        (Array.to_list hits))

let test_team_failure () =
  Team.with_team ~workers:2 (fun team ->
      (try
         Team.round team (fun slot -> if slot = 1 then failwith "boom");
         Alcotest.fail "worker exception not re-raised"
       with Failure m -> Alcotest.(check string) "worker exn" "boom" m);
      (* The team survives a failed round. *)
      let ran = Array.make 2 false in
      Team.round team (fun slot -> ran.(slot) <- true);
      Alcotest.(check bool) "usable after failure" true (ran.(0) && ran.(1)))

let test_team_sequential () =
  (* workers = 1 never spawns a domain; round is a plain call. *)
  Team.with_team ~workers:1 (fun team ->
      Alcotest.(check int) "clamped size" 1 (Team.size team);
      let r = ref 0 in
      Team.round team (fun slot -> r := slot + 41);
      Alcotest.(check int) "slot 0 on caller" 41 !r)

(* ---- eligibility ------------------------------------------------------- *)

let ok_or_msg = function Ok () -> None | Error e -> Some e

let test_check_config () =
  let xg = Config.make Config.Hammer (Config.Xg_one_level Config.Transactional) in
  Alcotest.(check (option string)) "plain guard config eligible" None
    (ok_or_msg (Pdes.check_config xg));
  let reject what cfg =
    match Pdes.check_config cfg with
    | Ok () -> Alcotest.fail (what ^ ": expected rejection")
    | Error _ -> ()
  in
  reject "guard-less" (Config.make Config.Hammer Config.Accel_side);
  reject "host-side" (Config.make Config.Mesi Config.Host_side);
  reject "link faults"
    { xg with Config.link_faults = Some Xguard_network.Network.Fault.zero };
  reject "recovery"
    { xg with Config.recovery = Some (Xguard_xg.Xg_core.make_recovery ()) };
  reject "rate limit" { xg with Config.rate_limit = Some (0.5, 4) };
  reject "unordered link" { xg with Config.link_ordered = false };
  let jittered =
    Topology.
      {
        host = Hammer;
        dir_shards = 1;
        accels = [ { (default_accel "a0") with link_jitter = 3 } ];
      }
  in
  reject "jittered topology link" (Config.of_topology jittered);
  (* Lookahead is the smallest guard-link latency. *)
  let topo =
    Topology.
      {
        host = Hammer;
        dir_shards = 2;
        accels =
          [
            { (default_accel "a0") with link_latency = 9 };
            { (default_accel "b0") with link_latency = 4 };
          ];
      }
  in
  Alcotest.(check int) "lookahead = min link latency" 4
    (Pdes.lookahead (Config.of_topology topo));
  Alcotest.(check int) "legacy lookahead = link_latency" xg.Config.link_latency
    (Pdes.lookahead xg)

(* ---- byte-identity ----------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* One sharded stress run with every observability artifact captured: the
   merged outcome, OS violation count, the full trace dump and the Perfetto
   span timeline (ids and all). *)
let stress_artifacts ~workers ~seed ~ops cfg =
  let tr = Trace.create ~capacity:4096 () in
  let rc = Spans.create () in
  let sys, o =
    Xguard_obs.Obs.with_trace tr (fun () ->
        Spans.with_armed rc (fun () ->
            Pdes.run_stress ~workers ~seed ~ops_per_core:ops cfg))
  in
  let span_json =
    let path = Filename.temp_file "xguard_pdes" ".json" in
    Perfetto.write_file path [ ("stress", rc) ];
    let s = read_file path in
    Sys.remove path;
    s
  in
  (o, Xguard_xg.Os_model.error_count sys.System.os, Trace.dump tr, span_json)

let check_identical ~what cfg ~seed ~ops =
  let base = stress_artifacts ~workers:1 ~seed ~ops cfg in
  List.iter
    (fun workers ->
      let o1, v1, t1, s1 = base in
      let o2, v2, t2, s2 = stress_artifacts ~workers ~seed ~ops cfg in
      let tag fmt = Printf.sprintf "%s: %s (k=%d)" what fmt workers in
      Alcotest.(check bool) (tag "outcome") true (o1 = o2);
      Alcotest.(check int) (tag "violations") v1 v2;
      Alcotest.(check string) (tag "trace dump") t1 t2;
      Alcotest.(check string) (tag "span timeline") s1 s2)
    [ 2; 4 ]

let test_stress_identity_fixed () =
  let topo =
    Topology.
      {
        host = Hammer;
        dir_shards = 2;
        accels =
          [
            default_accel "a0";
            { (default_accel "b0") with variant = Full_state; link_latency = 5 };
          ];
      }
  in
  let cfg = Config.stress_sized (Config.of_topology topo) in
  check_identical ~what:"2-guard hammer" cfg ~seed:11 ~ops:60

let test_stress_identity_legacy () =
  (* The guard-less-topology path: a legacy single-guard organization. *)
  let cfg =
    Config.stress_sized
      (Config.make Config.Mesi (Config.Xg_two_level Config.Full_state))
  in
  check_identical ~what:"legacy mesi 2lvl" cfg ~seed:3 ~ops:50

let test_perf_identity () =
  let cfg = Config.make Config.Hammer (Config.Xg_one_level Config.Transactional) in
  let w = W.blocked ~tiles:4 () in
  let r1 = Perf.run ~sim_j:1 cfg w in
  let r2 = Perf.run ~sim_j:2 cfg w in
  let r4 = Perf.run ~sim_j:4 cfg w in
  Alcotest.(check bool) "perf result k=2 = k=1" true (r1 = r2);
  Alcotest.(check bool) "perf result k=4 = k=1" true (r1 = r4)

(* ---- QCheck: random small topologies x seeds --------------------------- *)

let gen_topology =
  QCheck.Gen.(
    let gen_spec i =
      let* variant = oneofl [ Topology.Transactional; Topology.Full_state ] in
      let* cached = frequency [ (3, return true); (1, return false) ] in
      let* two_level = if cached then bool else return false in
      let* cores = int_range 1 2 in
      let* lat = int_range 2 10 in
      return
        {
          (Topology.default_accel (Printf.sprintf "g%d" i)) with
          Topology.variant;
          cached;
          two_level;
          cores;
          link_latency = lat;
        }
    in
    let* host = oneofl [ Topology.Hammer; Topology.Mesi ] in
    let* shards = int_range 1 2 in
    let* n = int_range 1 3 in
    let* accels = flatten_l (List.init n gen_spec) in
    return Topology.{ host; dir_shards = shards; accels })

let arb_case =
  QCheck.make
    ~print:(fun (topo, seed) -> Printf.sprintf "%s seed=%d" (Topology.name topo) seed)
    QCheck.Gen.(pair gen_topology (int_range 1 1000))

let prop_identity =
  QCheck.Test.make ~name:"pdes byte-identity on random topologies" ~count:8
    arb_case (fun (topo, seed) ->
      let cfg = Config.stress_sized (Config.of_topology topo) in
      (match Topology.validate topo with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "generated invalid topology: %s" e);
      let a1 = stress_artifacts ~workers:1 ~seed ~ops:30 cfg in
      let a2 = stress_artifacts ~workers:2 ~seed ~ops:30 cfg in
      let a4 = stress_artifacts ~workers:4 ~seed ~ops:30 cfg in
      a1 = a2 && a1 = a4)

let tests =
  [
    ( "pdes",
      [
        Alcotest.test_case "team runs every slot per round" `Quick test_team_rounds;
        Alcotest.test_case "team re-raises worker failure" `Quick test_team_failure;
        Alcotest.test_case "team workers=1 is inline" `Quick test_team_sequential;
        Alcotest.test_case "eligibility gate and lookahead" `Quick test_check_config;
        Alcotest.test_case "stress identity, 2-guard topology" `Quick
          test_stress_identity_fixed;
        Alcotest.test_case "stress identity, legacy organization" `Quick
          test_stress_identity_legacy;
        Alcotest.test_case "perf runner identity across sim-j" `Quick
          test_perf_identity;
        QCheck_alcotest.to_alcotest prop_identity;
      ] );
  ]
