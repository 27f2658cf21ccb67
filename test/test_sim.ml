(* Tests for the simulation kernel: event ordering, run bounds, RNG. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_fifo_same_cycle () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:5 (fun () -> log := 2 :: !log);
  Engine.schedule e ~delay:5 (fun () -> log := 3 :: !log);
  (match Engine.run e with Engine.Drained -> () | _ -> Alcotest.fail "expected drain");
  Alcotest.(check (list int)) "FIFO within a cycle" [ 1; 2; 3 ] (List.rev !log)

let test_time_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10 (fun () -> log := (10, Engine.now e) :: !log);
  Engine.schedule e ~delay:1 (fun () -> log := (1, Engine.now e) :: !log);
  Engine.schedule e ~delay:7 (fun () -> log := (7, Engine.now e) :: !log);
  ignore (Engine.run e);
  let order = List.rev_map fst !log in
  Alcotest.(check (list int)) "time order" [ 1; 7; 10 ] order;
  check_int "final time" 10 (Engine.now e)

let test_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref 0 in
  let rec chain n = if n > 0 then Engine.schedule e ~delay:2 (fun () -> incr hits; chain (n - 1))
  in
  chain 100;
  ignore (Engine.run e);
  check_int "all chained events fired" 100 !hits;
  check_int "time advanced by 2 per link" 200 (Engine.now e)

let test_zero_delay_fires_after_queued () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0 (fun () ->
      log := "first" :: !log;
      Engine.schedule e ~delay:0 (fun () -> log := "nested" :: !log));
  Engine.schedule e ~delay:0 (fun () -> log := "second" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "zero-delay ordering" [ "first"; "second"; "nested" ]
    (List.rev !log)

let test_until_bound () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter (fun d -> Engine.schedule e ~delay:d (fun () -> fired := d :: !fired)) [ 1; 5; 9 ];
  (match Engine.run ~until:5 e with
  | Engine.Hit_time_limit -> ()
  | _ -> Alcotest.fail "expected time limit");
  Alcotest.(check (list int)) "events up to the bound" [ 1; 5 ] (List.rev !fired);
  check_int "clock advanced to bound" 5 (Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "resume finishes the rest" [ 1; 5; 9 ] (List.rev !fired)

let test_max_events () =
  let e = Engine.create () in
  let n = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1 (fun () -> incr n)
  done;
  (match Engine.run ~max_events:4 e with
  | Engine.Hit_event_limit -> ()
  | _ -> Alcotest.fail "expected event limit");
  check_int "exactly four fired" 4 !n;
  check_int "pending updated" 6 (Engine.pending e)

let test_stop () =
  let e = Engine.create () in
  let n = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1 (fun () ->
        incr n;
        if !n = 3 then Engine.stop e)
  done;
  (match Engine.run e with Engine.Stopped -> () | _ -> Alcotest.fail "expected stop");
  check_int "stopped after three" 3 !n

let test_past_scheduling_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10 (fun () ->
      Alcotest.check_raises "past time" (Invalid_argument
        "Engine.schedule_at: time 3 is in the past (now=10)")
        (fun () -> Engine.schedule_at e 3 ignore));
  ignore (Engine.run e)

let test_every () =
  let e = Engine.create () in
  let ticks = ref [] in
  Engine.every e ~period:10 ~phase:5 (fun () ->
      ticks := Engine.now e :: !ticks;
      List.length !ticks < 4);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "periodic ticks" [ 5; 15; 25; 35 ] (List.rev !ticks)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create ~seed:43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then differs := true
  done;
  check_bool "different seeds diverge" true !differs

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check_bool "in [0,17)" true (v >= 0 && v < 17);
    let w = Rng.int_in r ~lo:5 ~hi:9 in
    check_bool "in [5,9]" true (w >= 5 && w <= 9)
  done;
  (* Every value in a small range should eventually appear. *)
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 5) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "value %d seen" i) true s) seen

let test_rng_split_independent () =
  let parent = Rng.create ~seed:1 in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.int parent 1_000_000) in
  let ys = List.init 50 (fun _ -> Rng.int child 1_000_000) in
  check_bool "split streams differ" true (xs <> ys)

let test_rng_shuffle_is_permutation () =
  let r = Rng.create ~seed:3 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let test_rng_chance_extremes () =
  let r = Rng.create ~seed:11 in
  check_bool "p=0 never" false (Rng.chance r 0.0);
  check_bool "p=1 always" true (Rng.chance r 1.0)

(* The SplitMix64 stream, pinned so that a change to how the state is stored
   cannot move a single draw (every golden digest depends on it). *)
let test_rng_stream_pinned () =
  let check_int64s name expected actual =
    Alcotest.(check (list int64)) name expected actual
  in
  let first16 seed =
    let r = Rng.create ~seed in
    List.init 16 (fun _ -> Rng.bits64 r)
  in
  check_int64s "seed 0" [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
    -537132696929009172L; 1961750202426094747L; 6038094601263162090L; 3207296026000306913L;
    -4214222208109204676L; 4532161160992623299L; -884877559730491226L; 7313543279846440201L;
    -4408136866661146890L; -8781561602181964933L; -8205710985559103185L;
    -5382347917484077799L; -8882435919750266709L ] (first16 0);
  check_int64s "seed 1" [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L;
    8196980753821780235L; 8195237237126968761L; -4373826470845021568L; -2262517385565684571L;
    -8797857673641491083L; 5266705631892356520L; -3800091893662914666L; 7455107161863376737L;
    -7278709470210847746L; 8392123148533390784L; -8668512467949215094L; 8042142155559163816L;
    3081251696030599739L ] (first16 1);
  check_int64s "seed 42" [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
    6349198060258255764L; 701532786141963250L; -2430762948046562554L; 4028864712777624925L;
    -3677692746721775708L; 6270620877612482005L; -7037763681458882642L; 3779771651426294207L;
    9094045341461139646L; -8976257307478440218L; -8854191821003330121L;
    -6176718654468026660L; 3752715396868486130L ] (first16 42);
  let r = Rng.create ~seed:42 in
  check_int "int" 853 (Rng.int r 1000);
  check_int "int_in" 7 (Rng.int_in r ~lo:5 ~hi:9);
  check_bool "bool" false (Rng.bool r);
  Alcotest.(check (float 0.)) "float" 0x1.607387fc392b8p-2 (Rng.float r 1.0);
  check_bool "chance" true (Rng.chance r 0.5);
  Alcotest.(check string) "pick" "e" (Rng.pick r [| "a"; "b"; "c"; "d"; "e"; "f"; "g" |]);
  let child = Rng.split r in
  check_int64s "split child" [ -4026654402003481814L; 3833205896053839730L;
    -3386999252957733428L; -9220388381143131280L ] (List.init 4 (fun _ -> Rng.bits64 child));
  Alcotest.(check int64) "parent after split" (-3677692746721775708L) (Rng.bits64 r);
  check_int "child int" 685427 (Rng.int child 1_000_000)

(* The partial-order reduction's conflict rule, as it stands: a no-block
   event ([addr = -1]) packs the address field every other no-block event
   packs, so two of them conflict across controllers, while it commutes
   with another controller's block event.  MODEL_BASELINE.json depends on
   this rule. *)
let test_tags_conflict_rule () =
  let tag ctrl addr = Engine.pack_tag ~ctrl ~addr in
  let conflict what expected a b =
    check_bool what expected (Engine.tags_conflict a b);
    check_bool (what ^ " (symmetric)") expected (Engine.tags_conflict b a)
  in
  conflict "no-block events of two controllers" true (tag 0 (-1)) (tag 1 (-1));
  conflict "no-block and block events of one controller" true (tag 0 (-1)) (tag 0 5);
  conflict "no-block and another controller's block event" false (tag 0 (-1)) (tag 1 5);
  conflict "one block on two controllers" true (tag 0 5) (tag 1 5);
  conflict "two blocks on one controller" true (tag 0 5) (tag 0 6);
  conflict "two blocks on two controllers" false (tag 0 5) (tag 1 6);
  conflict "an untagged event" true Engine.no_tag (tag 1 6);
  check_int "no-block events share address field 0" 0 (Engine.tag_addr (tag 3 (-1)))

let tests =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "same-cycle FIFO" `Quick test_fifo_same_cycle;
        Alcotest.test_case "time ordering" `Quick test_time_ordering;
        Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
        Alcotest.test_case "zero-delay ordering" `Quick test_zero_delay_fires_after_queued;
        Alcotest.test_case "until bound + resume" `Quick test_until_bound;
        Alcotest.test_case "max_events bound" `Quick test_max_events;
        Alcotest.test_case "stop" `Quick test_stop;
        Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
        Alcotest.test_case "every" `Quick test_every;
        Alcotest.test_case "choice-tag conflict rule" `Quick test_tags_conflict_rule;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_is_permutation;
        Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
      ] );
  ]
