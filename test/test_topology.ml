(* Multi-accelerator topologies: the declarative config (parsing, validation,
   round-tripping), the N-guard system build over a sharded Hammer directory,
   cross-guard producer/consumer traffic, and campaign determinism for
   topology configs. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Campaign = Xguard_harness.Campaign
module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Topology = Xguard_harness.Topology
module Tester = Xguard_harness.Random_tester

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let parse s =
  match Topology.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "%S did not parse: %s" s e

(* The N=3 mixed cached/uncached/two-level topology used across this file. *)
let mixed3 = "hammer:shards=2;gpu0=trans,cached;nic0=full,uncached,lat=12;dsp0=trans,2lvl,cores=2"

(* ---- parsing and validation ---- *)

let test_parse_defaults () =
  let t = parse "mesi;gpu=full" in
  check_int "one accelerator" 1 (List.length t.Topology.accels);
  check_bool "mesi host" true (t.Topology.host = Topology.Mesi);
  check_int "no sharding by default" 1 t.Topology.dir_shards;
  let a = List.hd t.Topology.accels in
  check_bool "full-state guard" true (a.Topology.variant = Topology.Full_state);
  check_bool "cached by default" true a.Topology.cached;
  check_bool "one-level by default" false a.Topology.two_level;
  check_int "default link latency" 8 a.Topology.link_latency;
  check_int "ordered link by default" 0 a.Topology.link_jitter;
  check_bool "no fault model by default" true (a.Topology.faults = None)

let test_parse_round_trip () =
  List.iter
    (fun s ->
      let t = parse s in
      let reparsed = parse (Topology.to_string t) in
      check_bool (Printf.sprintf "%S round-trips" s) true (t = reparsed))
    [
      "hammer;a=trans";
      mixed3;
      "mesi;gpu=full,2lvl,cores=4,lat=20;nic=trans,uncached,jitter=3";
      "hammer:shards=4;a=trans,drop=0.25,dup=0.1;b=full,fault=kill:3";
      "hammer;a=trans,fault=drop:2:Inv,fault=corrupt:5";
    ]

let test_validation_rejects () =
  List.iter
    (fun (s, needle) ->
      match Topology.of_string s with
      | Ok _ -> Alcotest.failf "%S was accepted" s
      | Error e ->
          check_bool
            (Printf.sprintf "%S rejected mentioning %S (got %S)" s needle e)
            true
            (is_infix ~affix:needle e))
    [
      ("", "empty topology");
      ("hammer", "no accelerators");
      ("hammer;a=trans;a=full", "duplicate");
      ("hammer:shards=0;a=trans", "out of range");
      ("hammer:shards=65;a=trans", "out of range");
      ("hammer:shards=two;a=trans", "bad shard count");
      ("gizmo;a=trans", "bad host segment");
      ("gizmo:shards=2;a=trans", "unknown host");
      ("hammer;a=uncached,2lvl", "2lvl requires a cached device");
      ("hammer;a=warp9", "unknown attribute");
      ("hammer;a=lat=0", "lat=0");
      ("hammer;a=2lvl,cores=9", "cores=9");
      ("hammer;=trans", "bad accelerator id");
      ("hammer;a=drop=1.5", "probabilities");
      ("hammer;a", "ID=ATTR");
    ]

let test_symmetric_and_name () =
  List.iter
    (fun n ->
      let t = Topology.symmetric ~shards:2 n in
      (match Topology.validate t with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "symmetric %d invalid: %s" n e);
      check_int (Printf.sprintf "symmetric %d size" n) n
        (List.length t.Topology.accels))
    [ 1; 2; 3; 4 ];
  check_string "name renders ids and shard count"
    "hammer:2/topo[gpu0,nic0,dsp0]"
    (Topology.name (parse mixed3));
  check_string "shard count of 1 is omitted" "mesi/topo[gpu]"
    (Topology.name (parse "mesi;gpu=full"))

let test_config_integration () =
  let cfg = Config.of_topology (parse mixed3) in
  check_bool "topology configs use XG" true (Config.uses_xg cfg);
  check_string "config name is the topology name" "hammer:2/topo[gpu0,nic0,dsp0]"
    (Config.name cfg);
  let sized = Config.stress_sized cfg in
  check_bool "stress sizing preserves the topology" true
    (sized.Config.topology = cfg.Config.topology)

(* ---- building and running N-guard systems ---- *)

let test_mixed3_build_and_stress () =
  let cfg = { (Config.of_topology (parse mixed3)) with Config.seed = 11 } in
  let sys = System.build cfg in
  check_int "three guards" 3 (Array.length sys.System.guards);
  check_string "guard order follows the spec list" "gpu0,nic0,dsp0"
    (String.concat ","
       (Array.to_list (Array.map (fun g -> g.System.g_id) sys.System.guards)));
  (* gpu0 and (single-buffer) nic0 expose one port each, dsp0 one per core. *)
  check_int "accel ports concatenate per guard" 4
    (Array.length sys.System.accel_ports);
  check_bool "per-guard perm tables: guard 0 aliases the system table" true
    (sys.System.guards.(0).System.g_perms == sys.System.perms);
  check_bool "per-guard perm tables: neighbors get their own" true
    (sys.System.guards.(1).System.g_perms != sys.System.perms);
  let labels = List.map fst (sys.System.stats_groups ()) in
  List.iter
    (fun l ->
      check_bool (Printf.sprintf "stats expose %s" l) true (List.mem l labels))
    [ "directory0"; "directory1"; "xg.gpu0"; "xg.nic0"; "xg.dsp0" ];
  let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
  let o =
    Tester.run ~engine:sys.System.engine ~rng:(Rng.create ~seed:42) ~ports
      ~addresses:(Array.init 6 Addr.block) ~ops_per_core:120 ()
  in
  check_bool "no deadlock" false o.Tester.deadlocked;
  check_int "no data errors" 0 o.Tester.data_errors;
  check_int "all ops complete" (120 * Array.length ports) o.Tester.ops_completed;
  Array.iteri
    (fun i n -> check_int (Printf.sprintf "port %d completes its quota" i) 120 n)
    o.Tester.ops_per_port

let test_producer_consumer_across_guards () =
  (* A producer behind one guard, a consumer behind another: every consumer
     load checks data that crossed two guard links and the host protocol. *)
  let cfg =
    { (Config.of_topology (parse "mesi;p=full,cached;c=trans,cached")) with Config.seed = 5 }
  in
  let sys = System.build cfg in
  let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
  let roles =
    Array.append
      (Array.make (Array.length sys.System.cpu_ports) Tester.Mixed)
      [| Tester.Producer; Tester.Consumer |]
  in
  let o =
    Tester.run ~engine:sys.System.engine ~rng:(Rng.create ~seed:17) ~ports ~roles
      ~addresses:(Array.init 4 Addr.block) ~ops_per_core:150 ()
  in
  check_bool "no deadlock" false o.Tester.deadlocked;
  check_int "consumer loads all check clean" 0 o.Tester.data_errors;
  check_int "all ops complete" (150 * Array.length ports) o.Tester.ops_completed

let test_topology_campaign_j_invariance () =
  (* The acceptance gate: a mixed N=3 topology campaign (stress + fuzz) is
     byte-identical for any worker count. *)
  let configs = [ Config.of_topology (parse mixed3) ] in
  let render w =
    Campaign.render
      (Campaign.run ~workers:w ~collect_coverage:true ~stress_ops:60
         ~fuzz_cpu_ops:60 ~seeding:(Campaign.Derived 13) Campaign.Both ~configs ~seeds:2
         ())
  in
  let r1 = render 1 in
  Alcotest.(check string) "-j 2 output equals -j 1" r1 (render 2);
  Alcotest.(check string) "-j 4 output equals -j 1" r1 (render 4)

let tests =
  [
    ( "topology",
      [
        Alcotest.test_case "parse defaults" `Quick test_parse_defaults;
        Alcotest.test_case "parse round-trip" `Quick test_parse_round_trip;
        Alcotest.test_case "validation rejects" `Quick test_validation_rejects;
        Alcotest.test_case "symmetric and name" `Quick test_symmetric_and_name;
        Alcotest.test_case "config integration" `Quick test_config_integration;
        Alcotest.test_case "N=3 mixed build and stress" `Quick
          test_mixed3_build_and_stress;
        Alcotest.test_case "producer/consumer across guards" `Quick
          test_producer_consumer_across_guards;
        Alcotest.test_case "topology campaign -j invariance" `Slow
          test_topology_campaign_j_invariance;
      ] );
  ]
