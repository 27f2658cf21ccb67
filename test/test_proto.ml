(* Tests for the protocol substrate: addresses, cache arrays, TBEs, memory,
   the sequencer. *)

module Engine = Xguard_sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_addr_pages () =
  let a = Addr.block 0 and b = Addr.block 63 and c = Addr.block 64 in
  check_int "page 0" 0 (Addr.page_of a);
  check_int "last block of page 0" 0 (Addr.page_of b);
  check_int "first block of page 1" 1 (Addr.page_of c);
  check_int "round trip" 128 (Addr.first_block_of_page 2)

let test_data_initial_distinct_from_zero () =
  let distinct = ref 0 in
  for a = 0 to 999 do
    if not (Data.equal (Data.initial (Addr.block a)) Data.zero) then incr distinct
  done;
  check_int "initial values are nonzero" 1000 !distinct

let test_perm_lattice () =
  check_bool "None !read" false (Perm.allows_read Perm.No_access);
  check_bool "RO read" true (Perm.allows_read Perm.Read_only);
  check_bool "RO !write" false (Perm.allows_write Perm.Read_only);
  check_bool "RW write" true (Perm.allows_write Perm.Read_write)

let test_cache_insert_find () =
  let c = Cache_array.create ~sets:4 ~ways:2 () in
  Cache_array.insert c (Addr.block 0) "a";
  Cache_array.insert c (Addr.block 4) "b";
  (* same set as 0 *)
  Alcotest.(check (option string)) "find a" (Some "a") (Cache_array.find c (Addr.block 0));
  Alcotest.(check (option string)) "find b" (Some "b") (Cache_array.find c (Addr.block 4));
  check_int "count" 2 (Cache_array.count c);
  check_bool "set 0 now full" false (Cache_array.has_room c (Addr.block 8))

let test_cache_lru_victim () =
  let c = Cache_array.create ~sets:1 ~ways:3 () in
  Cache_array.insert c (Addr.block 1) ();
  Cache_array.insert c (Addr.block 2) ();
  Cache_array.insert c (Addr.block 3) ();
  (* LRU is 1; touching it should make 2 the victim. *)
  (match Cache_array.victim c (Addr.block 9) with
  | Some (a, ()) -> check_int "victim is LRU" 1 (Addr.to_int a)
  | None -> Alcotest.fail "expected a victim");
  Cache_array.touch c (Addr.block 1);
  (match Cache_array.victim c (Addr.block 9) with
  | Some (a, ()) -> check_int "victim after touch" 2 (Addr.to_int a)
  | None -> Alcotest.fail "expected a victim");
  (* A resident address needs no victim. *)
  Alcotest.(check bool) "resident: no victim" true (Cache_array.victim c (Addr.block 2) = None)

let test_cache_full_set_rejects_insert () =
  let c = Cache_array.create ~sets:1 ~ways:1 () in
  Cache_array.insert c (Addr.block 1) ();
  (try
     Cache_array.insert c (Addr.block 2) ();
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  (try
     Cache_array.insert c (Addr.block 1) ();
     Alcotest.fail "expected duplicate rejection"
   with Invalid_argument _ -> ());
  Cache_array.remove c (Addr.block 1);
  Cache_array.insert c (Addr.block 2) ();
  check_int "insert after eviction" 1 (Cache_array.count c)

let test_cache_set_updates_payload () =
  let c = Cache_array.create ~sets:2 ~ways:2 () in
  Cache_array.insert c (Addr.block 3) 10;
  Cache_array.set c (Addr.block 3) 20;
  Alcotest.(check (option int)) "updated" (Some 20) (Cache_array.find c (Addr.block 3));
  try
    Cache_array.set c (Addr.block 5) 1;
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

let test_cache_non_power_of_two_sets () =
  try
    ignore (Cache_array.create ~sets:3 ~ways:1 ());
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_tbe_lifecycle () =
  let t = Tbe_table.create ~capacity:2 () in
  Alcotest.(check bool) "alloc ok" true (Tbe_table.alloc t (Addr.block 1) "x" = `Ok);
  Alcotest.(check bool) "busy" true (Tbe_table.alloc t (Addr.block 1) "y" = `Busy);
  Alcotest.(check bool) "alloc 2" true (Tbe_table.alloc t (Addr.block 2) "z" = `Ok);
  Alcotest.(check bool) "full" true (Tbe_table.alloc t (Addr.block 3) "w" = `Full);
  Tbe_table.update t (Addr.block 1) "x2";
  Alcotest.(check (option string)) "updated" (Some "x2") (Tbe_table.find t (Addr.block 1));
  Tbe_table.dealloc t (Addr.block 1);
  check_int "count after dealloc" 1 (Tbe_table.count t);
  try
    Tbe_table.dealloc t (Addr.block 1);
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

let test_memory_defaults_and_writes () =
  let m = Memory_model.create () in
  let a = Addr.block 17 in
  Alcotest.(check bool) "initial value" true (Data.equal (Memory_model.read m a) (Data.initial a));
  Memory_model.write m a (Data.token 99);
  check_int "written value" 99 (Memory_model.read m a);
  check_int "touched" 1 (List.length (Memory_model.touched m))

(* A fake cache port: rejects the first [reject] attempts per access, then
   completes after [latency] cycles with a canned value. *)
let fake_port engine ~reject ~latency =
  let attempts = Hashtbl.create 8 in
  {
    Access.issue =
      (fun access ~on_done ->
        let addr = access.Access.addr in
        let n = match Hashtbl.find_opt attempts addr with Some n -> n | None -> 0 in
        Hashtbl.replace attempts addr (n + 1);
        if n < reject then false
        else begin
          Engine.schedule engine ~delay:latency (fun () -> on_done (Data.token 7));
          true
        end);
  }

let test_sequencer_completes_and_measures () =
  let e = Engine.create () in
  let seq =
    Sequencer.create ~engine:e ~name:"seq" ~port:(fake_port e ~reject:0 ~latency:5) ()
  in
  let got = ref None in
  Sequencer.request seq (Access.load (Addr.block 1)) ~on_complete:(fun v ~latency ->
      got := Some (v, latency));
  ignore (Engine.run e);
  (match !got with
  | Some (v, lat) ->
      check_int "value" 7 v;
      check_int "latency" 5 lat
  | None -> Alcotest.fail "did not complete");
  check_int "completed count" 1 (Sequencer.completed seq)

let test_sequencer_retries_on_reject () =
  let e = Engine.create () in
  let seq =
    Sequencer.create ~engine:e ~name:"seq" ~port:(fake_port e ~reject:3 ~latency:1)
      ~retry_delay:2 ()
  in
  let done_ = ref false in
  Sequencer.request seq (Access.load (Addr.block 1)) ~on_complete:(fun _ ~latency:_ ->
      done_ := true);
  ignore (Engine.run e);
  check_bool "completed despite rejections" true !done_;
  check_int "counted retries" 3 (Sequencer.retries seq)

let test_sequencer_serializes_same_address () =
  let e = Engine.create () in
  (* A port that records how many accesses are in flight at once. *)
  let in_flight = ref 0 and max_in_flight = ref 0 in
  let port =
    {
      Access.issue =
        (fun _access ~on_done ->
          incr in_flight;
          if !in_flight > !max_in_flight then max_in_flight := !in_flight;
          Engine.schedule e ~delay:10 (fun () ->
              decr in_flight;
              on_done Data.zero);
          true);
    }
  in
  let seq = Sequencer.create ~engine:e ~name:"seq" ~port () in
  for _ = 1 to 5 do
    Sequencer.request seq (Access.store (Addr.block 9) (Data.token 1))
      ~on_complete:(fun _ ~latency:_ -> ())
  done;
  ignore (Engine.run e);
  check_int "same-address accesses serialized" 1 !max_in_flight;
  check_int "all completed" 5 (Sequencer.completed seq)

let test_sequencer_parallel_distinct_addresses () =
  let e = Engine.create () in
  let in_flight = ref 0 and max_in_flight = ref 0 in
  let port =
    {
      Access.issue =
        (fun _access ~on_done ->
          incr in_flight;
          if !in_flight > !max_in_flight then max_in_flight := !in_flight;
          Engine.schedule e ~delay:10 (fun () ->
              decr in_flight;
              on_done Data.zero);
          true);
    }
  in
  let seq = Sequencer.create ~engine:e ~name:"seq" ~port ~max_outstanding:4 () in
  for i = 1 to 4 do
    Sequencer.request seq (Access.load (Addr.block i)) ~on_complete:(fun _ ~latency:_ -> ())
  done;
  ignore (Engine.run e);
  check_int "distinct addresses overlap" 4 !max_in_flight

(* Property: an [Int_table] holds what a polymorphic [Hashtbl] holds after
   any sequence of replace/remove/reset, including strided and negative keys
   and enough keys to resize, and lists it in ascending key order. *)
let prop_int_table_matches_hashtbl =
  let op =
    QCheck2.Gen.(
      frequency
        [
          ( 6,
            map2
              (fun k v -> `Replace (k, v))
              (oneof [ int_range (-4) 300; map (( * ) 64) (int_range 0 40) ])
              nat );
          (3, map (fun k -> `Remove k) (int_range (-4) 300));
          (1, return `Reset);
        ])
  in
  QCheck2.Test.make ~name:"int table = Hashtbl" ~count:200
    QCheck2.Gen.(list_size (int_range 0 400) op)
    (fun ops ->
      let t = Int_table.create 8 and h = Hashtbl.create 8 in
      List.iter
        (function
          | `Replace (k, v) -> Int_table.replace t k v; Hashtbl.replace h k v
          | `Remove k -> Int_table.remove t k; Hashtbl.remove h k
          | `Reset -> Int_table.reset t; Hashtbl.reset h)
        ops;
      let expected =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
      in
      Int_table.length t = Hashtbl.length h
      && Int_table.sorted_bindings t = expected
      && List.for_all
           (fun k ->
             Int_table.find_opt t k = Hashtbl.find_opt h k
             && Int_table.mem t k = Hashtbl.mem h k
             && (match Int_table.find t k with v -> Some v | exception Not_found -> None)
                = Hashtbl.find_opt h k)
           (List.init 310 (fun k -> k - 5) @ List.init 41 (fun i -> i * 64))
      && List.sort compare (Int_table.fold (fun k v acc -> (k, v) :: acc) t []) = expected
      &&
      let seen = ref [] in
      Int_table.iter (fun k v -> seen := (k, v) :: !seen) t;
      List.sort compare !seen = expected)

let tests =
  [
    ( "proto.basics",
      [
        Alcotest.test_case "addr pages" `Quick test_addr_pages;
        Alcotest.test_case "data initial" `Quick test_data_initial_distinct_from_zero;
        Alcotest.test_case "perm lattice" `Quick test_perm_lattice;
        Alcotest.test_case "memory defaults" `Quick test_memory_defaults_and_writes;
      ] );
    ( "proto.cache_array",
      [
        Alcotest.test_case "insert/find" `Quick test_cache_insert_find;
        Alcotest.test_case "LRU victim" `Quick test_cache_lru_victim;
        Alcotest.test_case "full set rejects" `Quick test_cache_full_set_rejects_insert;
        Alcotest.test_case "set payload" `Quick test_cache_set_updates_payload;
        Alcotest.test_case "power-of-two sets" `Quick test_cache_non_power_of_two_sets;
      ] );
    ("proto.tbe", [ Alcotest.test_case "lifecycle" `Quick test_tbe_lifecycle ]);
    ("proto.int_table", [ QCheck_alcotest.to_alcotest prop_int_table_matches_hashtbl ]);
    ( "proto.sequencer",
      [
        Alcotest.test_case "completes + latency" `Quick test_sequencer_completes_and_measures;
        Alcotest.test_case "retries" `Quick test_sequencer_retries_on_reject;
        Alcotest.test_case "same-address serialization" `Quick
          test_sequencer_serializes_same_address;
        Alcotest.test_case "parallel distinct addresses" `Quick
          test_sequencer_parallel_distinct_addresses;
      ] );
  ]
