(* Golden bytes of the model-checker state fingerprint beyond the tiny plans.
   MODEL_BASELINE.json pins only what the checker's tiny plans reach (one
   CPU, one accelerator core, two blocks, one level).  Here every evaluated
   configuration at stress size, plus a lossy topology under a recovery
   policy, is built with check mode on and driven by the random tester in
   32-event chunks; every chunk's [check_fingerprint] folds into one MD5 per
   run.  The fingerprint writers may get faster, but not one byte of what
   they write may move: update a digest only for an intended change of the
   fingerprint format, and then MODEL_BASELINE.json moves with it. *)

module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Tester = Xguard_harness.Random_tester
module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng

let chunk = 32

(* Returns the folded digest and the tester's outcome. *)
let fold_fingerprints cfg =
  let cfg = Config.stress_sized { cfg with Config.seed = 1 } in
  let sys = System.build cfg in
  sys.System.check_enable ();
  let engine = sys.System.engine in
  let tester =
    Tester.prepare ~engine ~rng:(Rng.create ~seed:2)
      ~ports:(Array.append sys.System.cpu_ports sys.System.accel_ports)
      ~addresses:(Array.init 6 Addr.block) ~ops_per_core:200 ()
  in
  let buf = Buffer.create 4096 in
  let acc = ref (Digest.string "") in
  let rec go () =
    let r = Engine.run ~max_events:chunk engine in
    Buffer.clear buf;
    sys.System.check_fingerprint buf;
    acc := Digest.string (!acc ^ Buffer.contents buf);
    match r with Engine.Hit_event_limit -> go () | _ -> r
  in
  let drained = go () = Engine.Drained in
  (Digest.to_hex !acc, Tester.finish tester ~drained)

let golden =
  [
    ("hammer/accel-side", "199bafb0dfc86c5ea36902e53cefd6a7");
    ("hammer/host-side", "cab0842ea160487250f1656827525d9d");
    ("hammer/xg-full-1lvl", "73045a1cc554451c23d81eb04adb33df");
    ("hammer/xg-trans-1lvl", "c5d632631637adb93ec0f603d15c4106");
    ("hammer/xg-full-2lvl", "0319851777feb8c64cc844fb934787ab");
    ("hammer/xg-trans-2lvl", "aed6980add6d0fac2af93f3c7377fc49");
    ("mesi/accel-side", "96d7a5fdcf3f2190b8dd7b13a3433c14");
    ("mesi/host-side", "66f1874847a0f2d2270141098af044ad");
    ("mesi/xg-full-1lvl", "2f94d0e6883714b56e06095b0fc87f21");
    ("mesi/xg-trans-1lvl", "d7714c4db94823e69db92a3d038a0115");
    ("mesi/xg-full-2lvl", "4fd3b016ad9183fff8bc9ae8ecf33dbd");
    ("mesi/xg-trans-2lvl", "554c1c0155fefce66d8ae64f1ccb6467");
    ("hammer topology, lossy + recovery", "d503bd252c798a3641ef98780edaadae");
  ]

let runs () =
  List.map (fun cfg -> (Config.name cfg, cfg)) (Config.all_configurations ())
  @ [
      ( "hammer topology, lossy + recovery",
        Test_system.lossy (Test_system.topology "hammer") );
    ]

let test_case (label, expected) =
  Alcotest.test_case label `Quick (fun () ->
      let digest, o = fold_fingerprints (List.assoc label (runs ())) in
      Alcotest.(check int) (label ^ ": data errors") 0 o.Tester.data_errors;
      Alcotest.(check bool) (label ^ ": deadlocked") false o.Tester.deadlocked;
      Alcotest.(check string) (label ^ ": folded fingerprint digest") expected digest)

let tests = [ ("fingerprint-golden", List.map test_case golden) ]
