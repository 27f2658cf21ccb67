(* Tests for counters, histograms and result tables. *)

module Counter = Xguard_stats.Counter
module Histogram = Xguard_stats.Histogram
module Table = Xguard_stats.Table

let check_int = Alcotest.(check int)

let test_counter_basics () =
  let c = Counter.create "msgs" in
  check_int "starts at zero" 0 (Counter.get c);
  Counter.incr c;
  Counter.add c 5;
  check_int "incr + add" 6 (Counter.get c);
  Counter.reset c;
  check_int "reset" 0 (Counter.get c)

let test_group_find_or_create () =
  let g = Counter.Group.create "cache" in
  Counter.Group.incr g "hits";
  Counter.Group.incr g "hits";
  Counter.Group.add g "misses" 3;
  check_int "hits" 2 (Counter.Group.get g "hits");
  check_int "misses" 3 (Counter.Group.get g "misses");
  check_int "untouched counter reads zero" 0 (Counter.Group.get g "evictions");
  Alcotest.(check (list (pair string int)))
    "creation order" [ ("hits", 2); ("misses", 3) ]
    (Counter.Group.to_list g)

let test_group_reset_all () =
  let g = Counter.Group.create "g" in
  Counter.Group.add g "a" 10;
  Counter.Group.add g "b" 20;
  Counter.Group.reset_all g;
  check_int "a reset" 0 (Counter.Group.get g "a");
  check_int "b reset" 0 (Counter.Group.get g "b")

let test_histogram_exact_stats () =
  let h = Histogram.create "lat" in
  List.iter (Histogram.observe h) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  check_int "count" 8 (Histogram.count h);
  check_int "sum" 31 (Histogram.sum h);
  check_int "min" 1 (Histogram.min_value h);
  check_int "max" 9 (Histogram.max_value h);
  Alcotest.(check (float 0.001)) "mean" 3.875 (Histogram.mean h)

let test_histogram_percentile_monotone () =
  let h = Histogram.create "p" in
  for i = 0 to 1000 do
    Histogram.observe h i
  done;
  let p50 = Histogram.percentile h 0.5 in
  let p90 = Histogram.percentile h 0.9 in
  let p100 = Histogram.percentile h 1.0 in
  Alcotest.(check bool) "p50 <= p90" true (p50 <= p90);
  Alcotest.(check bool) "p90 <= p100" true (p90 <= p100);
  check_int "p100 is max" 1000 p100;
  (* Bucketed estimate: p50 of 0..1000 must land within its power-of-two
     bucket, i.e. in [500, 1023]. *)
  Alcotest.(check bool) "p50 upper bound is sane" true (p50 >= 500 && p50 <= 1023)

let test_histogram_empty_errors () =
  let h = Histogram.create "e" in
  Alcotest.(check bool) "count 0" true (Histogram.count h = 0);
  (try
     ignore (Histogram.min_value h);
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ());
  (try
     ignore (Histogram.percentile h 0.5);
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_histogram_single_sample () =
  let h = Histogram.create "one" in
  Histogram.observe h 7;
  check_int "p0 is the sample" 7 (Histogram.percentile h 0.0);
  check_int "p50 is the sample" 7 (Histogram.percentile h 0.5);
  check_int "p100 is the sample" 7 (Histogram.percentile h 1.0);
  check_int "min" 7 (Histogram.min_value h);
  check_int "max" 7 (Histogram.max_value h);
  check_int "count" 1 (Histogram.count h)

let test_histogram_boundary_quantiles () =
  (* Two samples in bucket 0 ({0}) and two in bucket 1 ({1}): the quantile
     target lands exactly on the cumulative-count boundary between buckets. *)
  let h = Histogram.create "bq" in
  List.iter (Histogram.observe h) [ 0; 0; 1; 1 ];
  check_int "p50 hits the first bucket exactly" 0 (Histogram.percentile h 0.5);
  check_int "p75 crosses into the second" 1 (Histogram.percentile h 0.75);
  check_int "p100 is the max" 1 (Histogram.percentile h 1.0);
  (* Out-of-range quantiles clamp rather than raise. *)
  check_int "p<0 clamps to p0" 0 (Histogram.percentile h (-0.5));
  check_int "p>1 clamps to p100" 1 (Histogram.percentile h 1.5)

(* [quantile] is the non-raising sibling of [percentile] used by SLO
   evaluation: None on empty, clamping at the edges, and exact max at
   q = 1.0 (where [percentile] may only promise a bucket upper bound). *)
let test_histogram_quantile_edges () =
  let e = Histogram.create "qe" in
  Alcotest.(check (option int)) "empty q0.5" None (Histogram.quantile e 0.5);
  Alcotest.(check (option int)) "empty q1.0" None (Histogram.quantile e 1.0);
  let one = Histogram.create "q1" in
  Histogram.observe one 7;
  Alcotest.(check (option int)) "single q0.0" (Some 7) (Histogram.quantile one 0.0);
  Alcotest.(check (option int)) "single q0.5" (Some 7) (Histogram.quantile one 0.5);
  Alcotest.(check (option int)) "single q1.0" (Some 7) (Histogram.quantile one 1.0);
  (* Samples in different power-of-two buckets: q=1.0 must be the recorded
     maximum (300), not bucket 256..511's upper bound. *)
  let h = Histogram.create "qm" in
  List.iter (Histogram.observe h) [ 5; 300 ];
  Alcotest.(check (option int)) "q1.0 exact max" (Some 300) (Histogram.quantile h 1.0);
  Alcotest.(check (option int)) "q>1 clamps to max" (Some 300) (Histogram.quantile h 1.5);
  (match Histogram.quantile h 0.25 with
  | Some v -> Alcotest.(check bool) "q0.25 covers the low sample" true (v >= 5)
  | None -> Alcotest.fail "non-empty histogram returned None")

(* [of_dump] must rebuild from the (lo, count) bucket serialization so that
   the restored histogram is indistinguishable from the original — the
   property [xguard report] relies on when merging shard metric streams. *)
let test_histogram_of_dump_roundtrip () =
  let h = Histogram.create "d" in
  List.iter (Histogram.observe h) [ 0; 1; 3; 17; 300; 300 ];
  let dump = List.map (fun (lo, _, c) -> (lo, c)) (Histogram.buckets h) in
  let r =
    Histogram.of_dump ~name:"d" ~sum:(Histogram.sum h)
      ~min_v:(Histogram.min_value h) ~max_v:(Histogram.max_value h) dump
  in
  check_int "count restored" (Histogram.count h) (Histogram.count r);
  check_int "sum restored" (Histogram.sum h) (Histogram.sum r);
  check_int "min restored" (Histogram.min_value h) (Histogram.min_value r);
  check_int "max restored" (Histogram.max_value h) (Histogram.max_value r);
  Alcotest.(check bool) "buckets restored" true
    (Histogram.buckets h = Histogram.buckets r);
  Alcotest.(check (option int)) "q0.5 restored" (Histogram.quantile h 0.5)
    (Histogram.quantile r 0.5);
  Alcotest.(check (option int)) "q1.0 restored" (Histogram.quantile h 1.0)
    (Histogram.quantile r 1.0);
  (* Restored histograms merge like the originals. *)
  let g = Histogram.create "d" in
  List.iter (Histogram.observe g) [ 2; 90 ];
  let g' =
    Histogram.of_dump ~name:"d" ~sum:(Histogram.sum g)
      ~min_v:(Histogram.min_value g) ~max_v:(Histogram.max_value g)
      (List.map (fun (lo, _, c) -> (lo, c)) (Histogram.buckets g))
  in
  let m = Histogram.merge h g and m' = Histogram.merge r g' in
  Alcotest.(check bool) "restored merge matches" true
    ( Histogram.count m = Histogram.count m'
    && Histogram.sum m = Histogram.sum m'
    && Histogram.buckets m = Histogram.buckets m'
    && Histogram.quantile m 0.99 = Histogram.quantile m' 0.99 );
  (* A lower bound that is not 0 or a power of two is a corrupt stream. *)
  try
    ignore (Histogram.of_dump ~name:"bad" ~sum:3 ~min_v:3 ~max_v:3 [ (3, 1) ]);
    Alcotest.fail "expected Invalid_argument on non-canonical bucket lo"
  with Invalid_argument _ -> ()

let test_histogram_merge () =
  let a = Histogram.create "m" and b = Histogram.create "m" in
  List.iter (Histogram.observe a) [ 1; 2; 3 ];
  List.iter (Histogram.observe b) [ 10; 20 ];
  let m = Histogram.merge a b in
  check_int "count adds" 5 (Histogram.count m);
  check_int "sum adds" 36 (Histogram.sum m);
  check_int "min of mins" 1 (Histogram.min_value m);
  check_int "max of maxes" 20 (Histogram.max_value m);
  (* merge is pure: the inputs keep their own state *)
  check_int "a untouched" 3 (Histogram.count a);
  check_int "b untouched" 2 (Histogram.count b);
  (* the empty histogram is the identity on both sides *)
  let e = Histogram.create "m" in
  let ae = Histogram.merge a e and ea = Histogram.merge e a in
  check_int "a+empty count" 3 (Histogram.count ae);
  check_int "a+empty min" 1 (Histogram.min_value ae);
  check_int "a+empty max" 3 (Histogram.max_value ae);
  check_int "empty+a count" 3 (Histogram.count ea);
  check_int "empty+a sum" 6 (Histogram.sum ea);
  (* merging two empties stays empty (sentinels compose) *)
  let ee = Histogram.merge e (Histogram.create "m") in
  check_int "empty+empty count" 0 (Histogram.count ee);
  try
    ignore (Histogram.min_value ee);
    Alcotest.fail "expected empty merge to stay empty"
  with Invalid_argument _ -> ()

(* Sharding samples across N histograms and folding with [merge] must be
   observationally identical to observing them all into one histogram —
   the property the campaign relies on for byte-identical -j N reports. *)
let prop_histogram_shard_merge =
  QCheck2.Test.make ~name:"sharded histogram merge equals sequential accumulation"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 5) (small_list small_nat))
    (fun (shards, samples) ->
      let seq = Histogram.create "h" in
      List.iter (Histogram.observe seq) samples;
      let parts = Array.init shards (fun _ -> Histogram.create "h") in
      List.iteri (fun i v -> Histogram.observe parts.(i mod shards) v) samples;
      (* Fold from an empty histogram so the sentinel min/max compose too. *)
      let merged = Array.fold_left Histogram.merge (Histogram.create "h") parts in
      let view h =
        ( Histogram.count h,
          Histogram.sum h,
          Histogram.buckets h,
          if Histogram.count h = 0 then None
          else
            Some
              ( Histogram.min_value h,
                Histogram.max_value h,
                Histogram.percentile h 0.5,
                Histogram.percentile h 0.95,
                Histogram.percentile h 0.99 ) )
      in
      view merged = view seq)

let test_histogram_buckets_cover_all () =
  let h = Histogram.create "b" in
  List.iter (Histogram.observe h) [ 0; 1; 2; 3; 100; 100_000 ];
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Histogram.buckets h) in
  check_int "bucket counts sum to n" 6 total

let test_table_rendering () =
  let t = Table.create ~title:"Demo" ~columns:[ "config"; "cycles"; "ratio" ] in
  Table.add_row t [ "baseline"; "1000"; Table.cell_ratio 1.0 ];
  Table.add_separator t;
  Table.add_row t [ "xg"; "1100"; Table.cell_ratio 1.1 ];
  let s = Table.to_string t in
  Alcotest.(check bool) "title present" true (String.length s > 0 && String.sub s 0 4 = "Demo");
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "row present" true (contains "baseline" s);
  Alcotest.(check bool) "ratio cell" true (contains "1.10x" s)

let test_table_arity_checked () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  try
    Table.add_row t [ "only-one" ];
    Alcotest.fail "expected arity failure"
  with Invalid_argument _ -> ()

let test_cells () =
  Alcotest.(check string) "pct" "3.1%" (Table.cell_pct 0.031);
  Alcotest.(check string) "float" "2.50" (Table.cell_float 2.5);
  Alcotest.(check string) "int" "42" (Table.cell_int 42)

(* The adopted hot path (Group.adopt/incr_id, Coverage.intern_matrix/hit)
   must be observationally indistinguishable from string-keyed Group.incr:
   same counters, same first-touch order, same analyze/merge output — even
   when the two paths are interleaved on the same group and counts are
   sharded across groups then merged.  Each group adopts two spaces' shared
   vocabularies (the second into a group that is no longer fresh); the
   first space may carry names that collide within it (states A.B/A with
   events C/B.C both give A.B.C), which must share one counter; string-keyed
   incr/get of vocabulary names run before, between and after hits. *)
let prop_interned_byte_identical =
  let module Group = Counter.Group in
  let module Coverage = Xguard_trace.Coverage in
  QCheck2.Test.make
    ~name:"interned counter ids are byte-identical to string keys" ~count:200
    QCheck2.Gen.(
      pair
        (triple (int_range 1 6) (int_range 1 6) bool)
        (pair (int_range 1 4)
           (small_list
              (quad (int_range 0 1) small_nat small_nat (oneofl [ `Hit; `Incr; `Get ])))))
    (fun ((n_states, n_events, colliding), (shards, visits)) ->
      let spaces =
        Array.map
          (fun (name, st, ev, extra_st, extra_ev) ->
            let states = List.init n_states (Printf.sprintf "%s%d" st) @ extra_st in
            let events = List.init n_events (Printf.sprintf "%s%d" ev) @ extra_ev in
            ( Coverage.space ~name ~states ~events (),
              Array.of_list states,
              Array.of_list events ))
          [|
            ( "prop",
              "S",
              "E",
              (if colliding then [ "A.B"; "A" ] else []),
              if colliding then [ "C"; "B.C" ] else [] );
            ("other", "T", "F", [], []);
          |]
      in
      let ref_groups = Array.init shards (fun i -> Group.create (Printf.sprintf "g%d" i)) in
      let int_groups = Array.init shards (fun i -> Group.create (Printf.sprintf "g%d" i)) in
      let mats =
        Array.map
          (fun (space, _, _) -> Array.map (Coverage.intern_matrix space) int_groups)
          spaces
      in
      let keys =
        Array.to_list spaces
        |> List.concat_map (fun (_, st, ev) ->
               Array.to_list st
               |> List.concat_map (fun s -> List.map (( ^ ) (s ^ ".")) (Array.to_list ev)))
      in
      let same_gets () =
        List.for_all
          (fun key ->
            Array.for_all2 (fun r i -> Group.get r key = Group.get i key) ref_groups int_groups)
          keys
      in
      let gets_before = same_gets () in
      let gets_between = ref true in
      List.iteri
        (fun k (sp, s, e, action) ->
          let _, st, ev = spaces.(sp) in
          let s = s mod Array.length st and e = e mod Array.length ev in
          let key = st.(s) ^ "." ^ ev.(e) in
          let shard = k mod shards in
          match action with
          | `Hit ->
              Group.incr ref_groups.(shard) key;
              Coverage.hit mats.(sp).(shard) ~state:s ~event:e
          | `Incr ->
              Group.incr ref_groups.(shard) key;
              Group.incr int_groups.(shard) key
          | `Get ->
              if Group.get ref_groups.(shard) key <> Group.get int_groups.(shard) key then
                gets_between := false)
        visits;
      let same_dumps =
        Array.for_all2
          (fun a b -> Group.to_list a = Group.to_list b)
          ref_groups int_groups
      in
      let all_ref = Array.to_list ref_groups and all_int = Array.to_list int_groups in
      let same_reports =
        Array.for_all
          (fun (space, _, _) ->
            let reference = Coverage.to_string (Coverage.analyze space all_ref) in
            let merged =
              let per_shard = Array.map (fun g -> Coverage.analyze space [ g ]) int_groups in
              Array.fold_left Coverage.merge per_shard.(0)
                (Array.sub per_shard 1 (shards - 1))
            in
            Coverage.to_string (Coverage.analyze space all_int) = reference
            && Coverage.to_string merged = reference)
          spaces
      in
      let readopt_rejected =
        let space, _, _ = spaces.(0) in
        let g = Group.create "twice" in
        ignore (Coverage.intern_matrix space g);
        match Coverage.intern_matrix space g with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      gets_before && !gets_between && same_gets () && same_dumps && same_reports
      && readopt_rejected)

let tests =
  [
    ( "stats",
      [
        Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "group find-or-create" `Quick test_group_find_or_create;
        Alcotest.test_case "group reset" `Quick test_group_reset_all;
        Alcotest.test_case "histogram exact stats" `Quick test_histogram_exact_stats;
        Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentile_monotone;
        Alcotest.test_case "histogram empty errors" `Quick test_histogram_empty_errors;
        Alcotest.test_case "histogram single sample" `Quick test_histogram_single_sample;
        Alcotest.test_case "histogram boundary quantiles" `Quick
          test_histogram_boundary_quantiles;
        Alcotest.test_case "histogram quantile edges" `Quick
          test_histogram_quantile_edges;
        Alcotest.test_case "histogram of_dump roundtrip" `Quick
          test_histogram_of_dump_roundtrip;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets_cover_all;
        Alcotest.test_case "table rendering" `Quick test_table_rendering;
        Alcotest.test_case "table arity" `Quick test_table_arity_checked;
        Alcotest.test_case "cell formatting" `Quick test_cells;
        QCheck_alcotest.to_alcotest prop_interned_byte_identical;
        QCheck_alcotest.to_alcotest prop_histogram_shard_merge;
      ] );
  ]
