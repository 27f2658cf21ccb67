(* Tests for the transaction span layer (lib/obs): recorder arming, the
   addr-keyed crossing lifecycle, summary merging, drop counting, the
   time-series sampler and the Perfetto exporter. *)

module Spans = Xguard_obs.Spans
module Obs = Xguard_obs.Obs
module Perfetto = Xguard_obs.Perfetto
module Engine = Xguard_sim.Engine
module Table = Xguard_stats.Table
module Histogram = Xguard_stats.Histogram

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Hook sites call a span hook only when the domain's observer context
   holds a recorder — the spans-off byte-identity contract starts with "no
   recorder is ever reachable unarmed". *)
let armed_is r = match Obs.spans () with Some x -> x == r | None -> false

let test_unarmed_noops () =
  check_bool "off by default" true (Option.is_none (Obs.spans ()));
  let (), sr, _ = Xguard_harness.Campaign.(observe no_observers ~label:"none" ignore) in
  check_bool "no observers arm no recorder" true (Option.is_none sr);
  check_bool "still off" true (Option.is_none (Obs.spans ()))

let test_arming_restores () =
  let r = Spans.create () in
  check_bool "armed inside" true (Spans.with_armed r (fun () -> armed_is r));
  check_bool "restored outside" true (Option.is_none (Obs.spans ()));
  (* nested arming restores the outer recorder, and exceptions restore too *)
  let r2 = Spans.create () in
  Spans.with_armed r (fun () ->
      (try Spans.with_armed r2 (fun () -> failwith "boom") with Failure _ -> ());
      check_bool "outer recorder back after inner raise" true (armed_is r))

(* Unarmed hooks skip the domain-local key while no armed context is
   installed anywhere: the count must be back to zero once arming returns,
   raises, or nests. *)
let test_armed_count_restored () =
  check_bool "none armed before" true (Obs.armed_contexts () = 0);
  let r = Spans.create () in
  Spans.with_armed r (fun () -> check_bool "one armed inside" true (Obs.armed_contexts () = 1));
  check_bool "zero after return" true (Obs.armed_contexts () = 0);
  (try Spans.with_armed r (fun () -> failwith "boom") with Failure _ -> ());
  check_bool "zero after raise" true (Obs.armed_contexts () = 0);
  Spans.with_armed r (fun () ->
      Obs.with_ctx Obs.none (fun () ->
          check_bool "an unarmed inner context is not counted" true
            (Obs.armed_contexts () = 1 && Option.is_none (Obs.spans ()))));
  check_bool "zero after nesting" true (Obs.armed_contexts () = 0)

(* Full GET crossing: open -> delivered -> decided -> resp sent -> resp
   delivered closes link.req, xg.decide and link.resp, then retires. *)
let test_get_crossing_lifecycle () =
  let r = Spans.create () in
  Spans.xreq_open r Spans.Get_s ~addr:64 ~now:100;
  check_bool "crossing open" true (Spans.lookup r ~addr:64 <> None);
  Spans.xreq_delivered r ~addr:64 ~now:108;
  Spans.xg_decided r ~addr:64 ~now:120;
  Spans.resp_sent r ~addr:64 ~now:150;
  Spans.resp_delivered r ~addr:64 ~now:158;
  check_bool "retired" true (Spans.lookup r ~addr:64 = None);
  let cells = Spans.Summary.cells (Spans.summary r) in
  let durs =
    List.map
      (fun (s, x, h) ->
        Printf.sprintf "%s/%s n=%d max=%d" s x (Histogram.count h) (Histogram.max_value h))
      cells
  in
  Alcotest.(check (list string))
    "three segments, right durations"
    [ "link.req/GetS n=1 max=8"; "xg.decide/GetS n=1 max=12"; "link.resp/GetS n=1 max=8" ]
    durs

(* Duplicate deliveries and replayed decisions must not double-count. *)
let test_defensive_against_dups () =
  let r = Spans.create () in
  Spans.xreq_open r Spans.Get_m ~addr:0 ~now:0;
  Spans.xreq_delivered r ~addr:0 ~now:5;
  Spans.xreq_delivered r ~addr:0 ~now:9;
  (* dup frame *)
  Spans.xg_decided r ~addr:0 ~now:12;
  Spans.xg_decided r ~addr:0 ~now:30;
  (* unknown address: ignored *)
  Spans.xreq_delivered r ~addr:999 ~now:1;
  let counts =
    List.map (fun (s, _, h) -> (s, Histogram.count h)) (Spans.Summary.cells (Spans.summary r))
  in
  Alcotest.(check (list (pair string int)))
    "one sample per segment" [ ("link.req", 1); ("xg.decide", 1) ] counts

(* A writeback stays resolvable through lookup_put after the accel ack
   retired the request/response half — even when a follow-up GET has opened
   a new crossing on the same block. *)
let test_put_parks_until_settled () =
  let r = Spans.create () in
  Spans.xreq_open r Spans.Put_m ~addr:4 ~now:0;
  Spans.xreq_delivered r ~addr:4 ~now:8;
  Spans.host_put_issued r ~addr:4;
  Spans.xg_decided r ~addr:4 ~now:10;
  Spans.resp_sent r ~addr:4 ~now:10;
  Spans.resp_delivered r ~addr:4 ~now:18;
  (* a new GET crossing opens on the same block before the put settles *)
  Spans.xreq_open r Spans.Get_s ~addr:4 ~now:20;
  (match Spans.lookup_put r ~addr:4 with
  | Some (_, txn) ->
      Alcotest.(check string) "parked put keeps its txn" "PutM" (Spans.txn_name txn)
  | None -> Alcotest.fail "put not resolvable after ack");
  (match Spans.lookup r ~addr:4 with
  | Some (_, txn) ->
      Alcotest.(check string) "new crossing is the GET" "GetS" (Spans.txn_name txn)
  | None -> Alcotest.fail "follow-up GET evicted");
  Spans.put_settled r ~addr:4;
  check_bool "put gone after settle" true (Spans.lookup_put r ~addr:4 = None);
  check_int "no replacement counted" 0 (Spans.Summary.replaced (Spans.summary r))

let test_reopen_counts_replaced () =
  let r = Spans.create () in
  Spans.xreq_open r Spans.Get_s ~addr:8 ~now:0;
  Spans.xreq_open r Spans.Get_s ~addr:8 ~now:50;
  check_int "stale crossing counted" 1 (Spans.Summary.replaced (Spans.summary r))

let test_timeline_drop_counting () =
  let r = Spans.create ~timeline:true ~timeline_cap:4 () in
  for i = 1 to 6 do
    Spans.record r Spans.Link_req Spans.Get_s ~span:i ~addr:i ~ts:i ~dur:1
  done;
  check_int "cap kept" 4 (Array.length (Spans.timeline_events r));
  check_int "overflow counted" 2 (Spans.timeline_dropped r);
  check_int "summary sees the drops" 2 (Spans.Summary.dropped (Spans.summary r));
  (* histograms keep accumulating past the timeline cap *)
  match Spans.Summary.cells (Spans.summary r) with
  | [ (_, _, h) ] -> check_int "all six samples in the histogram" 6 (Histogram.count h)
  | _ -> Alcotest.fail "expected one cell"

(* Merging per-shard summaries in any grouping must equal one accumulated
   summary — what makes campaign span tables byte-identical for any -j. *)
let test_summary_merge_matches_sequential () =
  let seq = Spans.create () in
  let shards = Array.init 3 (fun _ -> Spans.create ()) in
  let feed r k =
    Spans.xreq_open r Spans.Get_s ~addr:k ~now:0;
    Spans.xreq_delivered r ~addr:k ~now:(k + 1);
    Spans.record r Spans.Seq_e2e Spans.Load ~span:0 ~addr:k ~ts:0 ~dur:(10 * (k + 1))
  in
  for k = 0 to 8 do
    feed seq k;
    feed shards.(k mod 3) k
  done;
  let merged =
    Array.fold_left
      (fun acc r -> Spans.Summary.merge acc (Spans.summary r))
      Spans.Summary.empty shards
  in
  let render s =
    match Spans.Summary.attribution_table s with
    | Some t -> Table.to_string t
    | None -> ""
  in
  Alcotest.(check string) "merged == sequential" (render (Spans.summary seq)) (render merged);
  (* associativity: ((s0+s1)+s2) == (s0+(s1+s2)) *)
  let s = Array.map Spans.summary shards in
  Alcotest.(check string) "associative"
    (render (Spans.Summary.merge (Spans.Summary.merge s.(0) s.(1)) s.(2)))
    (render (Spans.Summary.merge s.(0) (Spans.Summary.merge s.(1) s.(2))))

(* The engine's observer sampler samples every boundary the clock reaches —
   each sample sees every event at or before its boundary — then the stop
   cycle, and never keeps the engine alive or moves its clock. *)
let test_sampler_series () =
  let engine = Engine.create () in
  let r = Spans.create () in
  let v = ref 0 in
  Spans.add_gauge r ~name:"g" (fun () -> !v);
  for i = 0 to 40 do
    Engine.schedule engine ~delay:((i * 10) + 5) (fun () -> v := i)
  done;
  Engine.set_sampler engine ~period:100 (fun now -> Spans.sample_gauges r ~now);
  ignore (Engine.run engine);
  let series =
    List.map
      (fun (ts, vals) ->
        match vals with
        | [| ("g", v) |] -> (ts, v)
        | _ -> Alcotest.fail "expected one gauge")
      (Spans.sample_series r)
  in
  Alcotest.(check (list (pair int int)))
    "boundaries, then the stop cycle"
    [ (100, 9); (200, 19); (300, 29); (400, 39); (405, 40) ]
    series;
  check_int "the clock stops at the last event" 405 (Engine.now engine);
  check_int "no sampler event fired" 41 (Engine.events_fired engine);
  check_bool "engine drained" true (Engine.pending engine = 0)

let test_perfetto_export () =
  let r = Spans.create ~timeline:true () in
  Spans.add_gauge r ~name:"depth" (fun () -> 3);
  Spans.record r Spans.Link_req Spans.Get_s ~span:1 ~addr:64 ~ts:10 ~dur:8;
  Spans.record r Spans.Host_fetch Spans.Get_m ~span:2 ~addr:128 ~ts:20 ~dur:100;
  let file = Filename.temp_file "xguard_spans" ".json" in
  Perfetto.write_file file [ ("job0", r) ];
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  check_bool "traceEvents present" true (contains "\"traceEvents\"" text);
  check_bool "segment name present" true (contains "\"link.req\"" text);
  check_bool "txn category present" true (contains "\"GetM\"" text);
  check_bool "complete events" true (contains "\"ph\":\"X\"" text);
  check_bool "process metadata" true (contains "\"process_name\"" text);
  check_bool "job label present" true (contains "\"job0\"" text)

(* Hostile gauge names and job labels must still yield valid JSON — the
   exporter escapes every string it emits, and the round-trip through our own
   parser is the proof.  Table-driven over the classic escaping traps. *)
let test_perfetto_escaping () =
  let cases =
    [
      ("quote", "evil\"name");
      ("backslash", "back\\slash");
      ("both", "q\"b\\q\"");
      ("newline-tab", "line1\nline2\ttabbed");
      ("control", "nul\x01\x1f");
    ]
  in
  List.iter
    (fun (case, name) ->
      let r = Spans.create ~timeline:true () in
      Spans.add_gauge r ~name (fun () -> 1);
      Spans.sample_gauges r ~now:100;
      Spans.record r Spans.Link_req Spans.Get_s ~span:1 ~addr:0 ~ts:0 ~dur:4;
      let file = Filename.temp_file "xguard_escape" ".json" in
      Perfetto.write_file file [ (name, r) ];
      let ic = open_in_bin file in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove file;
      match Xguard_obs.Json.of_string text with
      | Ok json ->
          (* the hostile name survives the round-trip somewhere in the doc *)
          let rec strings acc = function
            | Xguard_obs.Json.String s -> s :: acc
            | Xguard_obs.Json.List l -> List.fold_left strings acc l
            | Xguard_obs.Json.Obj kvs ->
                List.fold_left (fun a (k, v) -> strings (k :: a) v) acc kvs
            | _ -> acc
          in
          check_bool
            (case ^ ": name survives round-trip")
            true
            (List.exists (fun s -> contains name s) (strings [] json))
      | Error e -> Alcotest.failf "%s: exporter emitted invalid JSON: %s" case e)
    cases

let tests =
  [
    ( "spans",
      [
        Alcotest.test_case "unarmed hooks are no-ops" `Quick test_unarmed_noops;
        Alcotest.test_case "arming restores" `Quick test_arming_restores;
        Alcotest.test_case "armed count restored" `Quick test_armed_count_restored;
        Alcotest.test_case "GET crossing lifecycle" `Quick test_get_crossing_lifecycle;
        Alcotest.test_case "defensive against dups" `Quick test_defensive_against_dups;
        Alcotest.test_case "put parks until settled" `Quick test_put_parks_until_settled;
        Alcotest.test_case "reopen counts replaced" `Quick test_reopen_counts_replaced;
        Alcotest.test_case "timeline drop counting" `Quick test_timeline_drop_counting;
        Alcotest.test_case "summary merge" `Quick test_summary_merge_matches_sequential;
        Alcotest.test_case "sampler series" `Quick test_sampler_series;
        Alcotest.test_case "perfetto export" `Quick test_perfetto_export;
        Alcotest.test_case "perfetto string escaping" `Quick test_perfetto_escaping;
      ] );
  ]
