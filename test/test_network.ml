(* Tests for the interconnect: delivery, ordering disciplines, accounting. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Net = Xguard_network.Network.Make (struct
  type t = int
end)

let check_int = Alcotest.(check int)

let two_nodes () =
  let reg = Node.Registry.create () in
  (Node.Registry.fresh reg "a", Node.Registry.fresh reg "b")

let test_basic_delivery () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let a, b = two_nodes () in
  let net = Net.create ~engine:e ~rng ~name:"n" ~ordering:(Xguard_network.Network.Ordered { latency = 7 }) () in
  let got = ref [] in
  Net.register net b (fun ~src m -> got := (Node.name src, m, Engine.now e) :: !got);
  Net.register net a (fun ~src:_ _ -> ());
  Net.send net ~src:a ~dst:b 42;
  ignore (Engine.run e);
  (match !got with
  | [ (srcname, 42, at) ] ->
      Alcotest.(check string) "src" "a" srcname;
      check_int "latency respected" 7 at
  | _ -> Alcotest.fail "expected one delivery")

let test_ordered_fifo_per_pair () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let a, b = two_nodes () in
  let net = Net.create ~engine:e ~rng ~name:"n" ~ordering:(Xguard_network.Network.Ordered { latency = 3 }) () in
  let got = ref [] in
  Net.register net b (fun ~src:_ m -> got := m :: !got);
  for i = 1 to 100 do
    (* Stagger sends over time; FIFO must still hold. *)
    Engine.schedule e ~delay:i (fun () -> Net.send net ~src:a ~dst:b i)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "FIFO order" (List.init 100 (fun i -> i + 1)) (List.rev !got)

let test_unordered_delivers_everything () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let a, b = two_nodes () in
  let net =
    Net.create ~engine:e ~rng ~name:"n"
      ~ordering:(Xguard_network.Network.Unordered { min_latency = 1; max_latency = 50 })
      ()
  in
  let got = ref [] in
  Net.register net b (fun ~src:_ m -> got := m :: !got);
  for i = 1 to 200 do
    Net.send net ~src:a ~dst:b i
  done;
  ignore (Engine.run e);
  check_int "all delivered" 200 (List.length !got);
  let sorted = List.sort compare !got in
  Alcotest.(check (list int)) "no loss, no dup" (List.init 200 (fun i -> i + 1)) sorted;
  (* With a wide latency range, reordering must actually happen. *)
  Alcotest.(check bool) "reordering observed" true (List.rev !got <> sorted)

let test_unregistered_destination_rejected () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let a, b = two_nodes () in
  let net = Net.create ~engine:e ~rng ~name:"n" ~ordering:(Xguard_network.Network.Ordered { latency = 1 }) () in
  Net.register net a (fun ~src:_ _ -> ());
  try
    Net.send net ~src:a ~dst:b 1;
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_double_registration_rejected () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let a, _ = two_nodes () in
  let net = Net.create ~engine:e ~rng ~name:"n" ~ordering:(Xguard_network.Network.Ordered { latency = 1 }) () in
  Net.register net a (fun ~src:_ _ -> ());
  try
    Net.register net a (fun ~src:_ _ -> ());
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_bandwidth_accounting () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let a, b = two_nodes () in
  let net = Net.create ~engine:e ~rng ~name:"n" ~ordering:(Xguard_network.Network.Ordered { latency = 1 }) () in
  Net.register net a (fun ~src:_ _ -> ());
  Net.register net b (fun ~src:_ _ -> ());
  Net.send net ~src:a ~dst:b ~size:72 1;
  Net.send net ~src:a ~dst:b 2;
  (* default control size 8 *)
  Net.send net ~src:b ~dst:a ~size:72 3;
  ignore (Engine.run e);
  check_int "messages" 3 (Net.messages_sent net);
  check_int "bytes" 152 (Net.bytes_sent net);
  check_int "bytes from a" 80 (Net.bytes_from net a);
  check_int "bytes from b" 72 (Net.bytes_from net b)

let test_monitor_sees_all () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let a, b = two_nodes () in
  let net = Net.create ~engine:e ~rng ~name:"n" ~ordering:(Xguard_network.Network.Ordered { latency = 1 }) () in
  Net.register net b (fun ~src:_ _ -> ());
  let seen = ref 0 in
  Net.set_monitor net (fun ~src:_ ~dst:_ _ -> incr seen);
  for _ = 1 to 9 do
    Net.send net ~src:a ~dst:b 0
  done;
  ignore (Engine.run e);
  check_int "monitored" 9 !seen

(* Node ids far past the tables' first size: the handler and FIFO tables
   grow on first use and keep per-pair order. *)
let far_nodes () =
  let reg = Node.Registry.create () in
  (reg, Array.init 301 (fun i -> Node.Registry.fresh reg (Printf.sprintf "n%d" i)))

let test_far_node_ids () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let reg, nodes = far_nodes () in
  let n0 = nodes.(0) and n300 = nodes.(300) in
  check_int "id 300" 300 (Node.id n300);
  let net = Net.create ~engine:e ~rng ~name:"n" ~ordering:(Xguard_network.Network.Ordered { latency = 3 }) () in
  let at0 = ref [] and at300 = ref [] in
  Net.register net n300 (fun ~src m -> at300 := (Node.id src, m) :: !at300);
  Net.register net n0 (fun ~src m -> at0 := (Node.id src, m) :: !at0);
  for i = 1 to 20 do
    (* Several sends per cycle on both pairs. *)
    Engine.schedule e ~delay:(i / 3) (fun () ->
        Net.send net ~src:n0 ~dst:n300 i;
        Net.send net ~src:n300 ~dst:n0 (-i))
  done;
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int)))
    "n0 -> n300 in order" (List.init 20 (fun i -> (0, i + 1))) (List.rev !at300);
  Alcotest.(check (list (pair int int)))
    "n300 -> n0 in order" (List.init 20 (fun i -> (300, -(i + 1)))) (List.rev !at0);
  check_int "bytes from n300" 160 (Net.bytes_from net n300);
  Alcotest.check_raises "second registration"
    (Invalid_argument "Network.register(n): node n300 already registered") (fun () ->
      Net.register net n300 (fun ~src:_ _ -> ()));
  Alcotest.check_raises "unregistered destination"
    (Invalid_argument "Network.send(n): no handler registered for n7") (fun () ->
      Net.send net ~src:n0 ~dst:nodes.(7) 0);
  Alcotest.check_raises "unregistered destination past the table"
    (Invalid_argument "Network.send(n): no handler registered for m") (fun () ->
      let far = ref n0 in
      for _ = 1 to 400 do
        far := Node.Registry.fresh reg "m"
      done;
      Net.send net ~src:n0 ~dst:!far 0)

(* A check-mode fingerprint writes the FIFO release times still ahead, keyed
   [src * 65536 + dst], in ascending key order whatever order the pairs first
   sent in. *)
let test_fingerprint_fifo_order () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let _, nodes = far_nodes () in
  let n0 = nodes.(0) and n300 = nodes.(300) in
  let net = Net.create ~engine:e ~rng ~name:"n" ~ordering:(Xguard_network.Network.Ordered { latency = 3 }) () in
  Net.enable_check_mode net ~addr_of:(fun _ -> -1) ();
  Net.register net n0 (fun ~src:_ _ -> ());
  Net.register net n300 (fun ~src:_ _ -> ());
  Net.send net ~src:n300 ~dst:n0 1;
  Net.send net ~src:n0 ~dst:n300 2;
  let buf = Buffer.create 64 in
  Net.check_fingerprint net buf;
  Alcotest.(check string)
    "in flight, then FIFO entries by key" "m3:0>300:;m3:300>0:;f300:3;f19660800:3;"
    (Buffer.contents buf);
  ignore (Engine.run e);
  Buffer.clear buf;
  Net.check_fingerprint net buf;
  Alcotest.(check string) "past entries are inert" "" (Buffer.contents buf)

(* Property: ordered networks never reorder, for random send schedules. *)
let prop_ordered_never_reorders =
  QCheck2.Test.make ~name:"ordered link is FIFO under random schedules" ~count:50
    QCheck2.Gen.(pair (int_range 0 1000) (list_size (int_range 1 60) (int_range 0 30)))
    (fun (seed, delays) ->
      let e = Engine.create () in
      let rng = Rng.create ~seed in
      let a, b = two_nodes () in
      let net =
        Net.create ~engine:e ~rng ~name:"n" ~ordering:(Xguard_network.Network.Ordered { latency = 4 }) ()
      in
      let got = ref [] in
      Net.register net b (fun ~src:_ m -> got := m :: !got);
      List.iteri
        (fun i d -> Engine.schedule e ~delay:d (fun () -> Net.send net ~src:a ~dst:b i))
        delays;
      ignore (Engine.run e);
      (* Messages sent at the same cycle keep their scheduling order; across
         cycles, arrival order must respect send order per (src,dst).  We only
         assert the global property: the arrival sequence restricted to
         same-send-time groups is sorted by send order when send times are
         distinct.  Simplest sound check: sends that happen earlier in
         simulation time arrive no later than later sends. *)
      let arrival = Array.make (List.length delays) 0 in
      List.iteri (fun pos m -> arrival.(m) <- pos) (List.rev !got);
      let sends = Array.of_list delays in
      let ok = ref true in
      Array.iteri
        (fun i di ->
          Array.iteri
            (fun j dj -> if di < dj && arrival.(i) > arrival.(j) then ok := false)
            sends)
        sends;
      !ok)

let tests =
  [
    ( "network",
      [
        Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
        Alcotest.test_case "ordered FIFO" `Quick test_ordered_fifo_per_pair;
        Alcotest.test_case "unordered delivers all" `Quick test_unordered_delivers_everything;
        Alcotest.test_case "unregistered dst" `Quick test_unregistered_destination_rejected;
        Alcotest.test_case "double registration" `Quick test_double_registration_rejected;
        Alcotest.test_case "bandwidth accounting" `Quick test_bandwidth_accounting;
        Alcotest.test_case "monitor" `Quick test_monitor_sees_all;
        Alcotest.test_case "far node ids" `Quick test_far_node_ids;
        Alcotest.test_case "fingerprint FIFO order" `Quick test_fingerprint_fifo_order;
        QCheck_alcotest.to_alcotest prop_ordered_never_reorders;
      ] );
  ]
