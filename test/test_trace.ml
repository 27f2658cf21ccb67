(* Unit tests for the trace ring buffer and the transition-coverage layer
   (lib/trace): bounded recording, wraparound order, disabled-path no-ops,
   arming save/restore, per-address filtering, rendering, and coverage
   accounting.  The last test is the acceptance criterion that tracing is
   observation-only: a traced perf run is cycle-for-cycle identical to an
   untraced one. *)

module Trace = Xguard_trace.Trace
module Obs = Xguard_obs.Obs
module Coverage = Xguard_trace.Coverage
module Group = Xguard_stats.Counter.Group
module Config = Xguard_harness.Config
module Perf = Xguard_harness.Perf_runner
module W = Xguard_workload.Workload

let has_infix affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let note_n tr i = Trace.note tr ~cycle:i ~controller:"t" ~text:(string_of_int i) ()

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    note_n tr i
  done;
  check_int "recorded counts every emission" 10 (Trace.recorded tr);
  check_int "length is bounded by capacity" 4 (Trace.length tr);
  let texts = List.map (fun (e : Trace.event) -> e.Trace.a) (Trace.to_list tr) in
  Alcotest.(check (list string)) "oldest-first, keeps the newest" [ "7"; "8"; "9"; "10" ] texts

let test_ring_before_wrap () =
  let tr = Trace.create ~capacity:8 () in
  for i = 1 to 3 do
    note_n tr i
  done;
  check_int "partial fill length" 3 (Trace.length tr);
  let texts = List.map (fun (e : Trace.event) -> e.Trace.a) (Trace.to_list tr) in
  Alcotest.(check (list string)) "insertion order" [ "1"; "2"; "3" ] texts

(* A hook site emits only when the domain's observer context holds a ring —
   the pattern every site in lib/ follows. *)
let note_if_armed ~cycle text =
  match Obs.trace () with
  | Some tr -> Trace.note tr ~cycle ~controller:"t" ~text ()
  | None -> ()

let armed_ring () = Obs.trace ()

let test_disabled_is_noop () =
  check_bool "nothing armed by default" true (armed_ring () = None);
  note_if_armed ~cycle:1 "dropped";
  let tr = Trace.create ~capacity:4 () in
  Obs.with_trace tr (fun () ->
      check_bool "armed inside" true
        (match armed_ring () with Some r -> r == tr | None -> false));
  check_bool "disarmed after with_trace" true (armed_ring () = None);
  note_if_armed ~cycle:2 "dropped too";
  check_int "unarmed emissions went nowhere" 0 (Trace.recorded tr)

let test_with_armed_nesting_and_exceptions () =
  let outer = Trace.create () and inner = Trace.create () in
  Obs.with_trace outer (fun () ->
      note_if_armed ~cycle:1 "o1";
      Obs.with_trace inner (fun () -> note_if_armed ~cycle:2 "i1");
      note_if_armed ~cycle:3 "o2");
  check_int "outer saw its two events" 2 (Trace.recorded outer);
  check_int "inner saw the nested event" 1 (Trace.recorded inner);
  (try
     Obs.with_trace inner (fun () -> failwith "boom")
   with Failure _ -> ());
  check_bool "exception path restores disarmed state" true (armed_ring () = None)

let test_events_for () =
  let tr = Trace.create () in
  Trace.transition tr ~cycle:1 ~controller:"c" ~addr:64 ~state:"I" ~event:"Load" ~next:"IS" ();
  Trace.transition tr ~cycle:2 ~controller:"c" ~addr:128 ~state:"I" ~event:"Store" ~next:"IM" ();
  Trace.note tr ~cycle:3 ~controller:"tester" ~text:"global note" ();
  Trace.stall tr ~cycle:4 ~controller:"c" ~addr:64 ~why:"retry";
  let for64 = Trace.events_for tr ~addr:64 in
  check_int "addr filter keeps its events plus global notes" 3 (List.length for64);
  check_bool "other addr excluded" true
    (List.for_all (fun (e : Trace.event) -> e.Trace.addr <> 128) for64)

let test_formatting () =
  let tr = Trace.create () in
  Trace.transition tr ~cycle:482 ~controller:"mesi.l1.0" ~addr:3 ~state:"I" ~event:"Load"
    ~next:"IS" ();
  (match Trace.to_list tr with
  | [ ev ] ->
      check_str "transition line" "@    482 mesi.l1.0        0x3   [I] Load -> [IS]"
        (Trace.format_event ev)
  | _ -> Alcotest.fail "expected exactly one event");
  let tr2 = Trace.create () in
  Trace.send tr2 ~cycle:7 ~net:"xg.link" ~src:"accel" ~dst:"xg" ~addr:64 ~text:"GetS 0x40";
  Trace.note tr2 ~cycle:9 ~controller:"tester" ~text:"hello" ();
  let dump = Trace.dump tr2 in
  check_bool "dump shows the send" true
    (has_infix "send accel -> xg: GetS 0x40" dump);
  check_bool "address-less events render '-'" true (has_infix " -  " dump);
  check_str "dump ~last:1 keeps only the newest" "@      9 tester           -     hello"
    (Trace.dump ~last:1 tr2)

let test_coverage_accounting () =
  let space =
    Coverage.space ~name:"demo" ~states:[ "I"; "S"; "M" ] ~events:[ "Load"; "Store" ]
      ~possible:(fun s e -> not (s = "M" && e = "Load"))
      ()
  in
  let g = Group.create "demo.coverage" in
  Group.incr g "I.Load";
  Group.incr g "I.Load";
  Group.incr g "S.Store";
  Group.incr g "M.Load";
  (* impossible pair that fired -> stray *)
  Group.incr g "Z.Load";
  (* unknown state -> stray *)
  let r = Coverage.analyze space [ g ] in
  check_int "possible pairs" 5 r.Coverage.total;
  check_int "covered pairs" 2 r.Coverage.covered;
  check_int "hit count summed" 2 (r.Coverage.count "I" "Load");
  check_int "unvisited pair counts zero" 0 (r.Coverage.count "M" "Store");
  check_int "uncovered listed" 3 (List.length r.Coverage.uncovered);
  check_int "strays flagged" 2 (List.length r.Coverage.stray);
  check_bool "fraction" true (abs_float (Coverage.fraction r -. 0.4) < 1e-9);
  (* Several groups (same controller kind across runs) sum. *)
  let g2 = Group.create "demo.coverage2" in
  Group.incr g2 "M.Store";
  let r2 = Coverage.analyze space [ g; g2 ] in
  check_int "cross-group sum covers more" 3 r2.Coverage.covered;
  let table = Coverage.to_string r2 in
  check_bool "matrix renders impossible cells" true (has_infix "." table);
  check_bool "summary line present" true (has_infix "3/5" table)

let test_tracing_does_not_change_results () =
  (* Acceptance criterion: with tracing armed the simulation is bit-identical.
     Same config + workload + seed, traced and untraced, must agree on cycle
     count and traffic exactly. *)
  let cfg = Config.make Config.Hammer (Config.Xg_one_level Config.Transactional) in
  let w = W.blocked ~tiles:2 () in
  let plain = Perf.run cfg w in
  let tr = Trace.create ~capacity:4096 () in
  let traced = Obs.with_trace tr (fun () -> Perf.run cfg w) in
  check_bool "the traced run actually recorded events" true (Trace.recorded tr > 0);
  check_int "cycles identical" plain.Perf.cycles traced.Perf.cycles;
  check_int "accesses identical" plain.Perf.accel_accesses traced.Perf.accel_accesses;
  check_int "host bytes identical" plain.Perf.host_bytes traced.Perf.host_bytes;
  check_int "link bytes identical" plain.Perf.link_bytes traced.Perf.link_bytes

let tests =
  [
    ( "trace",
      [
        Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        Alcotest.test_case "ring before wrap" `Quick test_ring_before_wrap;
        Alcotest.test_case "disabled tracing is a no-op" `Quick test_disabled_is_noop;
        Alcotest.test_case "with_armed nests and restores" `Quick
          test_with_armed_nesting_and_exceptions;
        Alcotest.test_case "per-address filtering" `Quick test_events_for;
        Alcotest.test_case "event formatting" `Quick test_formatting;
        Alcotest.test_case "coverage accounting" `Quick test_coverage_accounting;
        Alcotest.test_case "tracing leaves results bit-identical" `Quick
          test_tracing_does_not_change_results;
      ] );
  ]
