(* Golden output of [System.build].  Every evaluated configuration, plus a
   sharded-directory topology on each host (and once more over a lossy link
   under a recovery policy), runs the random tester and hashes everything
   the reports render from the built system: stats and coverage groups,
   coverage-set names, fault/link tallies, host-network and link bytes, and
   the tester outcome.  Any drift in construction order, naming, RNG splits
   or report order changes a digest; update one only for an intended change
   of simulated output. *)

module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Topology = Xguard_harness.Topology
module Tester = Xguard_harness.Random_tester
module Rng = Xguard_sim.Rng
module Counter = Xguard_stats.Counter
module Fault = Xguard_network.Network.Fault

let topology host =
  let text =
    Printf.sprintf "%s:shards=2;gpu0=trans,cached;nic0=full,uncached,lat=12;dsp0=trans,2lvl,cores=2"
      host
  in
  match Topology.of_string text with
  | Ok topo -> Config.of_topology topo
  | Error e -> failwith e

let render (sys : System.t) (o : Tester.outcome) =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.bprintf buf fmt in
  let groups tag gs =
    List.iter
      (fun (name, g) ->
        pr "%s %s:" tag name;
        List.iter (fun (k, v) -> pr " %s=%d" k v) (Counter.Group.to_list g);
        pr "\n")
      gs
  in
  groups "stats" (sys.System.stats_groups ());
  groups "cov" (sys.System.coverage_groups ());
  List.iter
    (fun (name, _, gs) ->
      pr "set %s: %s\n" name (String.concat "," (List.map Counter.Group.name gs)))
    (sys.System.coverage_sets ());
  List.iter (fun (k, v) -> pr "link %s=%d\n" k v) (sys.System.link_stats ());
  pr "host_net_bytes=%d host_net_messages=%d link_bytes=%d xg_port_to_host_bytes=%d\n"
    (sys.System.host_net_bytes ())
    (sys.System.host_net_messages ())
    (sys.System.link_bytes ())
    (sys.System.xg_port_to_host_bytes ());
  pr "ops=%d errors=%d deadlocked=%b cycles=%d first_error=%s per_port=%s\n"
    o.Tester.ops_completed o.Tester.data_errors o.Tester.deadlocked o.Tester.cycles
    (match o.Tester.first_error_addr with Some a -> string_of_int a | None -> "-")
    (String.concat "," (Array.to_list (Array.map string_of_int o.Tester.ops_per_port)));
  Buffer.contents buf

let digest cfg =
  let cfg = Config.stress_sized { cfg with Config.seed = 1 } in
  let sys = System.build cfg in
  let o =
    Tester.run ~engine:sys.System.engine ~rng:(Rng.create ~seed:2)
      ~ports:(Array.append sys.System.cpu_ports sys.System.accel_ports)
      ~addresses:(Array.init 6 Addr.block) ~ops_per_core:200 ()
  in
  Digest.to_hex (Digest.string (render sys o))

let lossy cfg =
  {
    cfg with
    Config.link_faults = Some { Fault.zero with Fault.drop = 0.05 };
    recovery = Some (Xguard_xg.Xg_core.make_recovery ());
  }

let golden =
  [
    ("hammer/accel-side", "9a94a07737175dfa83d26f99087c565a");
    ("hammer/host-side", "4ad37091c1ce7281d6e3e23b184343e5");
    ("hammer/xg-full-1lvl", "403db1f47358cf585f4ebebe181f9b1d");
    ("hammer/xg-trans-1lvl", "66766bea828441f20933fb5f157866f3");
    ("hammer/xg-full-2lvl", "a01e6f9c54915b250332846f128ec6d5");
    ("hammer/xg-trans-2lvl", "49a822ac458da4325cf6fb872a369861");
    ("mesi/accel-side", "b5137b5642692373837bb78492ffb614");
    ("mesi/host-side", "6953ca29f5b31921dfe9d70de226993b");
    ("mesi/xg-full-1lvl", "ea2a1d4eff14025dc827e3937e70df77");
    ("mesi/xg-trans-1lvl", "e367f82a4d41f7de4258453e0f626034");
    ("mesi/xg-full-2lvl", "164802e2006753d64258b8cdcfbab20a");
    ("mesi/xg-trans-2lvl", "10d9796139e33739979ce52331a83f70");
    ("hammer topology", "fbe9dec852c3858693b48bc1613421ab");
    ("mesi topology", "20b547e7d629c12cdd9d1d844b4c90a6");
    ("hammer topology, lossy + recovery", "978c240e07445d32c9a8d8a8700a3a43");
  ]

let runs () =
  List.map (fun cfg -> (Config.name cfg, cfg)) (Config.all_configurations ())
  @ [
      ("hammer topology", topology "hammer");
      ("mesi topology", topology "mesi");
      ("hammer topology, lossy + recovery", lossy (topology "hammer"));
    ]

let test_case (label, expected) =
  Alcotest.test_case label `Quick (fun () ->
      Alcotest.(check string) (label ^ ": output digest") expected
        (digest (List.assoc label (runs ()))))

let tests = [ ("system-golden", List.map test_case golden) ]
