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
    ("hammer/accel-side", "e5a4152efec1d91b328c28ec7e0d4a83");
    ("hammer/host-side", "82ecae4f18d7a95f248632e0d65ed5bd");
    ("hammer/xg-full-1lvl", "553007702abe6908c0600f552f722953");
    ("hammer/xg-trans-1lvl", "dd4d4b2b46de9f9a761fe8ff65f39ef5");
    ("hammer/xg-full-2lvl", "c8bbce9eed400b6d0d5e47f81db0f2a8");
    ("hammer/xg-trans-2lvl", "494b937bb8145f458c33660357c71f36");
    ("mesi/accel-side", "bcb92ba3f6ecc29049f1ca9e35c22b5f");
    ("mesi/host-side", "a86e7896fb01b7e9faee43700e31c61a");
    ("mesi/xg-full-1lvl", "1b0bd21bbcd442f7ba7d925fc12f5bcd");
    ("mesi/xg-trans-1lvl", "06edd0b1d3acef5c1ada5d53647c6ddc");
    ("mesi/xg-full-2lvl", "7b07a825a8593dc2be42448144c223fa");
    ("mesi/xg-trans-2lvl", "3ea681c5c2fa5e26baa2b1174e0178f7");
    ("hammer topology, lossy + recovery", "f07dbd39a997a912751af1a5e5d26141");
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
