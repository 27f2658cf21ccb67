(* Tests for the streaming-metrics layer (lib/obs): the JSON reader, SLO
   parsing/evaluation, watchdog rule latching, summary merge determinism, the
   [xguard report] stream round-trip, golden digests of two armed runs'
   streams, and the sampler and watchdog against reference
   implementations. *)

module Json = Xguard_obs.Json
module Slo = Xguard_obs.Slo
module Watchdog = Xguard_obs.Watchdog
module Metrics = Xguard_obs.Metrics
module Spans = Xguard_obs.Spans
module Obs = Xguard_obs.Obs
module Histogram = Xguard_stats.Histogram
module Counter = Xguard_stats.Counter

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* What [write] prints to a channel. *)
let capture write =
  let file = Filename.temp_file "xguard_metrics" ".out" in
  let oc = open_out_bin file in
  write oc;
  close_out oc;
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  text

(* ---- JSON reader ---- *)

let test_json_roundtrip () =
  (* quote/of_string round-trip on escaping traps *)
  List.iter
    (fun s ->
      match Json.of_string (Json.quote s) with
      | Ok (Json.String s') -> check_string "string round-trip" s s'
      | Ok _ -> Alcotest.fail "quoted string parsed as non-string"
      | Error e -> Alcotest.failf "quote %S emitted invalid JSON: %s" s e)
    [ ""; "plain"; "q\"uote"; "back\\slash"; "nl\ntab\t"; "ctl\x01\x1f"; "mix\"\\\n" ];
  (* structured document with helpers *)
  match Json.of_string {_|{"a": 1, "b": [true, null, -2.5], "c": {"d": "x"}}|_} with
  | Error e -> Alcotest.failf "doc did not parse: %s" e
  | Ok doc ->
      check_int "int member" 1
        (Option.get (Option.bind (Json.member "a" doc) Json.to_int_opt));
      (match Json.member "b" doc with
      | Some (Json.List [ Json.Bool true; Json.Null; Json.Float f ]) ->
          Alcotest.(check (float 0.0001)) "float element" (-2.5) f
      | _ -> Alcotest.fail "list shape wrong");
      check_string "nested string" "x"
        (Option.get
           (Option.bind
              (Option.bind (Json.member "c" doc) (Json.member "d"))
              Json.to_string_opt))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "expected parse error on %S" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "\"unterminated"; "nul" ]

(* ---- SLO parsing and evaluation ---- *)

let test_slo_parse () =
  (match Slo.parse "xg.decide:p99<=40;seq.e2e:p95<=400;avail>=0.95" with
  | Error e -> Alcotest.failf "valid spec rejected: %s" e
  | Ok objs ->
      check_int "three objectives" 3 (List.length objs);
      Alcotest.(check (list string))
        "canonical rendering"
        [ "xg.decide:p99<=40"; "seq.e2e:p95<=400"; "avail>=0.95" ]
        (List.map Slo.objective_text objs));
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.failf "expected parse error on %S" bad
      | Error _ -> ())
    [ "bogus"; "xg.decide:p99<=abc"; "avail>=high" ]

let test_slo_evaluate () =
  let hist name samples =
    let h = Histogram.create name in
    List.iter (Histogram.observe h) samples;
    h
  in
  let span_cells = [ ("xg.decide", "GetS", hist "xg.decide" [ 10; 20; 100 ]) ] in
  let guard_hists =
    [
      (("xg.a0", "xg.e2e"), hist "xg.e2e" [ 900 ]);
      (("xg.nic0", "xg.e2e"), hist "xg.e2e" [ 30 ]);
    ]
  in
  let avail = [ ("xg.a0", 100, 1000); ("xg.nic0", 0, 1000) ] in
  let objs spec =
    match Slo.parse spec with Ok o -> o | Error e -> Alcotest.fail e
  in
  (* global span-segment objective: p99 of [10;20;100] exceeds 40 *)
  (match Slo.evaluate (objs "xg.decide:p99<=40") ~span_cells ~guard_hists:[] ~avail:[] with
  | [ v ] ->
      check_bool "latency objective fails" false v.Slo.v_pass;
      check_string "global scope" "global" v.Slo.v_scope;
      check_bool "has measured value" true (v.Slo.v_measured <> "-")
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs));
  (* generous bound passes *)
  (match Slo.evaluate (objs "xg.decide:p99<=100000") ~span_cells ~guard_hists:[] ~avail:[] with
  | [ v ] -> check_bool "generous bound passes" true v.Slo.v_pass
  | _ -> Alcotest.fail "expected one verdict");
  (* an objective with no samples anywhere passes vacuously *)
  (match Slo.evaluate (objs "host.fetch:p99<=5") ~span_cells ~guard_hists:[] ~avail:[] with
  | [ v ] ->
      check_bool "vacuous pass" true v.Slo.v_pass;
      check_string "no samples marker" "-" v.Slo.v_measured
  | _ -> Alcotest.fail "expected one verdict");
  (* per-guard metric: one verdict per guard, scoped to the guard label *)
  let pg = Slo.evaluate (objs "xg.e2e:p99<=100") ~span_cells:[] ~guard_hists ~avail:[] in
  check_int "one verdict per guard" 2 (List.length pg);
  List.iter
    (fun v ->
      match v.Slo.v_scope with
      | "xg.a0" -> check_bool "tarpit guard fails" false v.Slo.v_pass
      | "xg.nic0" -> check_bool "neighbor passes" true v.Slo.v_pass
      | s -> Alcotest.failf "unexpected scope %s" s)
    pg;
  check_bool "mixed verdicts fail overall" false (Slo.passed pg);
  (* availability: xg.a0 is 90% (< 95), xg.nic0 is 100% *)
  let av = Slo.evaluate (objs "avail>=0.95") ~span_cells:[] ~guard_hists:[] ~avail in
  check_int "availability judged per guard" 2 (List.length av);
  List.iter
    (fun v ->
      match v.Slo.v_scope with
      | "xg.a0" -> check_bool "90% fails 0.95" false v.Slo.v_pass
      | "xg.nic0" -> check_bool "100% passes" true v.Slo.v_pass
      | s -> Alcotest.failf "unexpected scope %s" s)
    av

(* ---- Watchdog ---- *)

let test_watchdog_parse () =
  (match Watchdog.parse "" with
  | Ok c -> check_bool "empty spec is default" true (c = Watchdog.default)
  | Error e -> Alcotest.fail e);
  (match Watchdog.parse "retry=8,stall=2,starve=3,ceil:xg.open_transactions=32" with
  | Ok c ->
      check_int "retry" 8 c.Watchdog.retry_burst;
      check_int "stall" 2 c.Watchdog.stall_ticks;
      check_int "starve" 3 c.Watchdog.starve_ticks;
      Alcotest.(check (list (pair string int)))
        "ceiling" [ ("xg.open_transactions", 32) ] c.Watchdog.ceilings
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Watchdog.parse bad with
      | Ok _ -> Alcotest.failf "expected parse error on %S" bad
      | Error _ -> ())
    [ "bogus"; "retry=x"; "frob=3" ]

let events_of = List.map (fun e -> (e.Watchdog.w_rule, e.Watchdog.w_event))

let test_watchdog_retry_storm_latches () =
  let w =
    Watchdog.create { Watchdog.default with retry_burst = 4 }
  in
  let tick ?(deltas = []) ?(gauges = []) now =
    events_of (Watchdog.observe w ~now ~deltas ~gauges)
  in
  Alcotest.(check (list (pair string string)))
    "burst trips" [ ("retry_storm", "Trip") ]
    (tick ~deltas:[ ("link.retransmit_frames", 5) ] 500);
  Alcotest.(check (list (pair string string)))
    "latched: continuing storm is silent" []
    (tick ~deltas:[ ("link.retransmit_frames", 9) ] 1000);
  Alcotest.(check (list (pair string string)))
    "quiet tick clears" [ ("retry_storm", "Clear") ]
    (tick ~deltas:[ ("seq.loads", 3) ] 1500);
  Alcotest.(check (list (pair string string)))
    "re-trips after clear" [ ("retry_storm", "Trip") ]
    (tick ~deltas:[ ("link.retransmit_frames", 4) ] 2000)

let test_watchdog_stall_and_ceiling () =
  let w =
    Watchdog.create
      { Watchdog.default with stall_ticks = 2; ceilings = [ ("q.depth", 10) ] }
  in
  let tick ?(deltas = []) ?(gauges = []) now =
    events_of (Watchdog.observe w ~now ~deltas ~gauges)
  in
  let open_g = ("xg.open_transactions", 2) in
  Alcotest.(check (list (pair string string)))
    "first stalled tick below threshold" []
    (tick ~gauges:[ open_g ] 500);
  Alcotest.(check (list (pair string string)))
    "second stalled tick trips" [ ("quiesce_stall", "Trip") ]
    (tick ~gauges:[ open_g ] 1000);
  Alcotest.(check (list (pair string string)))
    "progress clears the stall" [ ("quiesce_stall", "Clear") ]
    (tick ~deltas:[ ("seq.loads", 1) ] ~gauges:[ open_g ] 1500);
  (* gauge ceiling latches exactly once until it drops back under *)
  Alcotest.(check (list (pair string string)))
    "ceiling trips" [ ("gauge_ceiling", "Trip") ]
    (tick ~deltas:[ ("seq.loads", 1) ] ~gauges:[ ("q.depth", 12) ] 2000);
  Alcotest.(check (list (pair string string)))
    "still over: silent" []
    (tick ~deltas:[ ("seq.loads", 1) ] ~gauges:[ ("q.depth", 11) ] 2500);
  Alcotest.(check (list (pair string string)))
    "under again: clears" [ ("gauge_ceiling", "Clear") ]
    (tick ~deltas:[ ("seq.loads", 1) ] ~gauges:[ ("q.depth", 3) ] 3000)

(* ---- Summary merge determinism and the report round-trip ---- *)

(* One synthetic "job": an armed span+metrics recorder pair fed a counter
   group, a per-guard e2e crossing and an availability note, then sampled. *)
let run_job ~label ~guard ~lat =
  let sr = Spans.create () in
  let mr = Metrics.create () in
  let g = Counter.Group.create "seq" in
  Metrics.add_group mr ~name:"seq" g;
  Counter.Group.add g "loads" 3;
  Metrics.e2e_open mr ~guard ~addr:64 ~now:10;
  Metrics.e2e_close mr ~guard ~addr:64 ~now:(10 + lat);
  Metrics.tick { Obs.none with Obs.spans = Some sr; metrics = Some mr } ~now:500;
  Metrics.note_avail mr ~guard ~down:25 ~now:1000;
  Metrics.summary ~label mr

let test_summary_merge () =
  let s0 = run_job ~label:"job0" ~guard:"xg.a0" ~lat:40 in
  let s1 = run_job ~label:"job1" ~guard:"xg.a0" ~lat:80 in
  let s2 = run_job ~label:"job2" ~guard:"xg.nic0" ~lat:7 in
  let module S = Metrics.Summary in
  check_bool "empty is empty" true (S.is_empty S.empty);
  check_bool "job summary is not" false (S.is_empty s0);
  (* identity *)
  let labels s = List.map (fun b -> b.S.b_label) (S.blocks s) in
  Alcotest.(check (list string)) "left identity" [ "job0" ] (labels (S.merge S.empty s0));
  Alcotest.(check (list string)) "right identity" [ "job0" ] (labels (S.merge s0 S.empty));
  (* blocks concatenate in merge (= job) order *)
  let m = S.merge (S.merge s0 s1) s2 in
  Alcotest.(check (list string)) "job order kept" [ "job0"; "job1"; "job2" ] (labels m);
  check_int "samples add" 3 (S.samples m);
  (* per-guard histograms merge-join: both xg.a0 jobs land in one histogram *)
  (match List.assoc_opt ("xg.a0", "xg.e2e") (S.hists m) with
  | Some h ->
      check_int "a0 samples merged" 2 (Histogram.count h);
      check_int "max is the slow job" 80 (Histogram.max_value h)
  | None -> Alcotest.fail "missing merged xg.a0 histogram");
  check_bool "nic0 kept separate" true
    (List.mem_assoc ("xg.nic0", "xg.e2e") (S.hists m));
  (* associativity, observed through the canonical JSONL emission *)
  let emit s =
    capture (fun oc -> Metrics.write_jsonl oc ~period:500 ~span_cells:[] ~verdicts:[] s)
  in
  check_string "merge associates"
    (emit (S.merge (S.merge s0 s1) s2))
    (emit (S.merge s0 (S.merge s1 s2)))

let test_report_stream_roundtrip () =
  let module S = Metrics.Summary in
  let module R = Metrics.Report in
  let s = S.merge (run_job ~label:"job0" ~guard:"xg.a0" ~lat:40)
            (run_job ~label:"job1" ~guard:"xg.a0" ~lat:80) in
  let verdicts =
    match Slo.parse "xg.e2e:p99<=64" with
    | Ok objs ->
        Slo.evaluate objs ~span_cells:[] ~guard_hists:(S.hists s) ~avail:(S.avails s)
    | Error e -> Alcotest.fail e
  in
  let file = Filename.temp_file "xguard_stream" ".jsonl" in
  let oc = open_out file in
  Metrics.write_jsonl oc ~period:500 ~span_cells:[] ~verdicts s;
  close_out oc;
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  let lines = List.rev !lines in
  check_bool "stream has a meta line" true (List.length lines > 1);
  (* every line is one valid JSON object *)
  List.iter
    (fun l ->
      match Json.of_string l with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.failf "non-object line: %s" l
      | Error e -> Alcotest.failf "invalid JSONL line %S: %s" l e)
    lines;
  (* the report merger restores what the stream carried *)
  (match R.add_stream R.empty ~name:"shard0" lines with
  | Error e -> Alcotest.fail e
  | Ok rep -> (
      check_int "samples restored" (S.samples s) (R.samples rep);
      Alcotest.(check (list (pair string int)))
        "stream registered" [ ("shard0", S.samples s) ] (R.streams rep);
      (match List.assoc_opt ("xg.a0", "xg.e2e") (R.guard_hists rep) with
      | Some h ->
          check_int "histogram restored losslessly" 2 (Histogram.count h);
          check_int "max restored" 80 (Histogram.max_value h)
      | None -> Alcotest.fail "per-guard histogram lost in the stream");
      check_bool "embedded verdicts kept" true (R.verdicts rep <> []);
      (* adding a second shard accumulates *)
      match R.add_stream rep ~name:"shard1" lines with
      | Ok rep2 -> check_int "two shards add" (2 * S.samples s) (R.samples rep2)
      | Error e -> Alcotest.fail e));
  (* a corrupt stream is a parse error, not a crash *)
  match R.add_stream R.empty ~name:"bad" [ "{ not json" ] with
  | Ok _ -> Alcotest.fail "expected error on corrupt stream"
  | Error _ -> ()

(* ---- golden streams ---- *)

(* Armed runs whose whole metrics output is pinned: the JSONL stream (with
   span cells and SLO verdicts) and the Prometheus dump.  Nothing else
   compares the stream with a fixed reference, so any change to sampling,
   quantiles or the watchdog that moves one byte fails here.  Update a digest
   only for an intended change of metrics output. *)

module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Topology = Xguard_harness.Topology
module Experiments = Xguard_harness.Experiments
module Tester = Xguard_harness.Random_tester
module Rng = Xguard_sim.Rng
module Xg_core = Xguard_xg.Xg_core

let golden_watchdog =
  match Watchdog.parse "retry=4,stall=1,starve=1,ceil:xg.a0.link.in_flight=3" with
  | Ok c -> c
  | Error e -> failwith e

let golden_slo =
  match Slo.parse "xg.decide:p99<=40;seq.e2e:p99<=400;xg.e2e:p99<=200;avail>=0.95" with
  | Ok o -> o
  | Error e -> failwith e

(* Arm spans and metrics (with [golden_watchdog]) around [f]; return the
   metrics summary and the MD5s of its JSONL stream and Prometheus dump. *)
let armed_digests f =
  let sr = Spans.create () in
  let mr = Metrics.create ~watchdog:golden_watchdog () in
  Spans.with_armed sr (fun () -> Metrics.with_armed mr (fun () -> f mr));
  let span_cells = Spans.Summary.cells (Spans.summary sr) in
  let msum = Metrics.summary ~label:"golden" mr in
  let verdicts =
    Slo.evaluate golden_slo ~span_cells ~guard_hists:(Metrics.Summary.hists msum)
      ~avail:(Metrics.Summary.avails msum)
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  ( msum,
    md5
      (capture (fun oc ->
           Metrics.write_jsonl oc ~period:System.sampler_period ~span_cells ~verdicts msum)),
    md5 (capture (fun oc -> Metrics.write_prom oc ~span_cells msum)) )

let check_golden ~what (msum, jsonl, prom) ~jsonl_md5 ~prom_md5 =
  check_bool (what ^ ": samples recorded") true (Metrics.Summary.samples msum > 0);
  check_bool (what ^ ": the watchdog tripped") true
    (List.exists (fun (_, e) -> e.Watchdog.w_event = "Trip") (Metrics.Summary.events msum));
  check_string (what ^ ": JSONL digest") jsonl_md5 jsonl;
  check_string (what ^ ": Prometheus digest") prom_md5 prom

(* xbench's recovery smoke cell: two guards (every device cached), drop 0.1
   and one wire cut on guard 0. *)
let test_golden_recovery () =
  let topo = Topology.symmetric ~shards:2 2 in
  let topo =
    {
      topo with
      Topology.accels =
        List.map (fun a -> { a with Topology.cached = true }) topo.Topology.accels;
    }
  in
  check_golden ~what:"measure_recovery"
    (armed_digests (fun _ ->
         ignore
           (Experiments.measure_recovery ~topo ~drop:0.1 ~cuts:[ 1_500 ] ~ops:60 ~ticks:150
              ~seed:1 ())))
    ~jsonl_md5:"28d2c694e12958cd64be2757e365071c" ~prom_md5:"9a52c44796ca5550c754dd63084cd5f3"

(* The random tester on a lossy three-guard topology under a recovery
   policy, with each guard's availability noted as the CLI does. *)
let test_golden_stress () =
  let cfg =
    match
      Topology.of_string
        "hammer:shards=2;a0=trans,cached,drop=0.1;b0=full,cached;c0=trans,cached"
    with
    | Ok topo ->
        {
          (Config.of_topology topo) with
          Config.seed = 1;
          recovery = Some (Xg_core.make_recovery ());
        }
    | Error e -> failwith e
  in
  check_golden ~what:"random tester"
    (armed_digests (fun mr ->
         let sys = System.build cfg in
         let o =
           Tester.run ~engine:sys.System.engine ~rng:(Rng.create ~seed:2)
             ~ports:(Array.append sys.System.cpu_ports sys.System.accel_ports)
             ~addresses:(Array.init 6 Addr.block) ~ops_per_core:200 ()
         in
         let now = o.Tester.cycles in
         Array.iter
           (fun (g : System.guard) ->
             Metrics.note_avail mr ~guard:("xg." ^ g.System.g_id)
               ~down:(Xg_core.down_cycles g.System.g_core ~now)
               ~now)
           sys.System.guards))
    ~jsonl_md5:"e9c816012e7ccc503755c0bff8e5c801" ~prom_md5:"7af87d45fb719fb7804fbfc2b04fc0c2"

(* ---- the sampler and the watchdog against reference implementations ---- *)

(* The metrics sampler as first written: every tick flattens each source's
   [to_list] under its label and keys previous values by full name in a
   string table.  The recorder's cursors must produce exactly these
   samples. *)
module Ref_sampler = struct
  type t = {
    mutable groups : (string * Counter.Group.t) list;
    mutable extra : (string * (unit -> int)) list;
    mutable span_gauges : (string * (unit -> int)) list;
    prev : (string, int) Hashtbl.t;
  }

  let create () = { groups = []; extra = []; span_gauges = []; prev = Hashtbl.create 16 }

  let sample t sr ~now =
    let vals =
      List.concat_map
        (fun (label, g) ->
          List.map (fun (n, v) -> (label ^ "." ^ n, v)) (Counter.Group.to_list g))
        t.groups
    in
    let gauges = List.map (fun (n, f) -> (n, f ())) (t.span_gauges @ t.extra) in
    if vals = [] && gauges = [] then None
    else
      let deltas =
        List.filter_map
          (fun (n, v) ->
            let p = Option.value ~default:0 (Hashtbl.find_opt t.prev n) in
            Hashtbl.replace t.prev n v;
            if v <> p then Some (n, v - p) else None)
          vals
      in
      let quants =
        Spans.Summary.cells (Spans.summary sr)
        |> List.map (fun (seg, txn, h) ->
               ( seg,
                 txn,
                 Histogram.count h,
                 Histogram.percentile h 0.5,
                 Histogram.percentile h 0.95,
                 Histogram.percentile h 0.99 ))
      in
      Some (now, deltas, gauges, quants)
end

(* The watchdog as first written: suffix tests on substrings, and a
   [List.assoc_opt] over all gauges for every [.outstanding] gauge's
   partner. *)
module Ref_watchdog = struct
  type t = {
    cfg : Watchdog.config;
    mutable storm_on : bool;
    mutable stall_streak : int;
    mutable stall_on : bool;
    starve_streak : (string, int) Hashtbl.t;
    starve_on : (string, unit) Hashtbl.t;
    ceiling_on : (string, unit) Hashtbl.t;
    prev_gauges : (string, int) Hashtbl.t;
  }

  let create cfg =
    {
      cfg;
      storm_on = false;
      stall_streak = 0;
      stall_on = false;
      starve_streak = Hashtbl.create 8;
      starve_on = Hashtbl.create 8;
      ceiling_on = Hashtbl.create 8;
      prev_gauges = Hashtbl.create 8;
    }

  let suffix_sum ~suffix kvs =
    List.fold_left
      (fun acc (n, v) -> if String.ends_with ~suffix n then acc + v else acc)
      0 kvs

  let observe t ~now ~deltas ~gauges =
    let acc = ref [] in
    let emit rule ev detail =
      acc :=
        {
          Watchdog.w_ts = now;
          w_rule = Watchdog.rules.(rule);
          w_event = Watchdog.events.(ev);
          w_detail = detail;
        }
        :: !acc
    in
    let progress = List.fold_left (fun a (_, d) -> a + abs d) 0 deltas in
    let retx = suffix_sum ~suffix:".retransmit_frames" deltas in
    if retx >= t.cfg.Watchdog.retry_burst && not t.storm_on then begin
      t.storm_on <- true;
      emit 0 0
        (Printf.sprintf "%d retransmit frames in one tick (burst >= %d)" retx
           t.cfg.Watchdog.retry_burst)
    end
    else if retx = 0 && t.storm_on then begin
      t.storm_on <- false;
      emit 0 1 "retransmissions subsided"
    end;
    let open_txns = suffix_sum ~suffix:".open_transactions" gauges in
    if open_txns > 0 && progress = 0 then begin
      t.stall_streak <- t.stall_streak + 1;
      if t.stall_streak >= t.cfg.Watchdog.stall_ticks && not t.stall_on then begin
        t.stall_on <- true;
        emit 1 0
          (Printf.sprintf "%d open transaction(s), no counter progress for %d tick(s)"
             open_txns t.stall_streak)
      end
    end
    else begin
      if t.stall_on then begin
        t.stall_on <- false;
        emit 1 1 "progress resumed"
      end;
      t.stall_streak <- 0
    end;
    List.iter
      (fun (name, v) ->
        if Filename.check_suffix name ".outstanding" then begin
          let base = Filename.chop_suffix name ".outstanding" in
          let ckey = base ^ ".completed" in
          match List.assoc_opt ckey gauges with
          | None -> ()
          | Some completed ->
              let prev =
                Option.value ~default:completed (Hashtbl.find_opt t.prev_gauges ckey)
              in
              Hashtbl.replace t.prev_gauges ckey completed;
              if v > 0 && completed = prev && progress > 0 then begin
                let streak =
                  Option.value ~default:0 (Hashtbl.find_opt t.starve_streak base) + 1
                in
                Hashtbl.replace t.starve_streak base streak;
                if streak >= t.cfg.Watchdog.starve_ticks && not (Hashtbl.mem t.starve_on base)
                then begin
                  Hashtbl.replace t.starve_on base ();
                  emit 2 0
                    (Printf.sprintf "%s: %d op(s) outstanding, none completed for %d tick(s)"
                       base v streak)
                end
              end
              else begin
                if Hashtbl.mem t.starve_on base then begin
                  Hashtbl.remove t.starve_on base;
                  emit 2 1 (Printf.sprintf "%s: completing again" base)
                end;
                Hashtbl.remove t.starve_streak base
              end
        end)
      gauges;
    List.iter
      (fun (gauge, limit) ->
        match List.assoc_opt gauge gauges with
        | None -> ()
        | Some v ->
            if v >= limit && not (Hashtbl.mem t.ceiling_on gauge) then begin
              Hashtbl.replace t.ceiling_on gauge ();
              emit 3 0 (Printf.sprintf "%s = %d (ceiling %d)" gauge v limit)
            end
            else if v < limit && Hashtbl.mem t.ceiling_on gauge then begin
              Hashtbl.remove t.ceiling_on gauge;
              emit 3 1 (Printf.sprintf "%s back under %d" gauge limit)
            end)
      t.cfg.Watchdog.ceilings;
    List.rev !acc
end

let pick rng a = a.(Random.State.int rng (Array.length a))

let event_testable = Alcotest.(list (pair (pair int string) (pair string string)))

let flat_events evs =
  List.map
    (fun e -> ((e.Watchdog.w_ts, e.Watchdog.w_rule), (e.Watchdog.w_event, e.Watchdog.w_detail)))
    evs

(* Gauge names for both layers: two sequencer ports with their completion
   partners (one partner registered twice), a port without one, and the
   quiescence and ceiling gauges the other rules read. *)
let gauge_names =
  [|
    "p0.outstanding";
    "p0.completed";
    "p1.outstanding";
    "p1.completed";
    "p2.outstanding";
    "xg.open_transactions";
    "q.depth";
    "p1.completed";
  |]

let ref_config =
  {
    Watchdog.retry_burst = 3;
    stall_ticks = 2;
    starve_ticks = 2;
    ceilings = [ ("q.depth", 4); ("p2.outstanding", 3); ("q.depth", 2) ];
  }

(* Random registrations, counter bumps, resets, gauge moves and span records,
   with a sampler tick every few steps: every sample (counters, gauges,
   quantiles) and every watchdog event must equal the reference's.  Labels
   and counter names are chosen so two sources render one full name ("a" +
   "b.c" and "a.b" + "c"), and groups get registered more than once. *)
let test_sampler_matches_reference () =
  let rng = Random.State.make [| 18 |] in
  let labels = [| "a"; "a.b"; "a.x"; "link" |] in
  let names = [| "c"; "b.c"; "x.y"; "y"; "d"; "retransmit_frames"; "e" |] in
  let vocab = Counter.Group.vocab [| "v0"; "c"; "v1"; "c" |] in
  for trial = 1 to 25 do
    let sr = Spans.create () in
    let mr = Metrics.create ~watchdog:ref_config () in
    let model = Ref_sampler.create () in
    let wd = Ref_watchdog.create ref_config in
    let expected = ref [] and expected_events = ref [] in
    let values = Array.make (Array.length gauge_names) 0 in
    let groups = Array.init 4 (fun i -> Counter.Group.create (Printf.sprintf "g%d" i)) in
    let adopted = Counter.Group.adopt groups.(3) vocab in
    let now = ref 0 in
    let register () =
      let g = pick rng groups and label = pick rng labels in
      Metrics.add_group mr ~name:label g;
      model.groups <- model.groups @ [ (label, g) ]
    in
    let add_gauge () =
      let k = Random.State.int rng (Array.length gauge_names) in
      let f () = values.(k) in
      if Random.State.bool rng then begin
        Spans.add_gauge sr ~name:gauge_names.(k) f;
        model.span_gauges <- model.span_gauges @ [ (gauge_names.(k), f) ]
      end
      else begin
        Metrics.add_gauge mr ~name:gauge_names.(k) f;
        model.extra <- model.extra @ [ (gauge_names.(k), f) ]
      end
    in
    let tick () =
      now := !now + 500;
      Metrics.tick { Obs.none with Obs.spans = Some sr; metrics = Some mr } ~now:!now;
      match Ref_sampler.sample model sr ~now:!now with
      | None -> ()
      | Some ((_, deltas, gauges, _) as s) ->
          expected := s :: !expected;
          expected_events :=
            List.rev_append (Ref_watchdog.observe wd ~now:!now ~deltas ~gauges) !expected_events
    in
    Spans.with_armed sr (fun () ->
        Metrics.with_armed mr (fun () ->
            (* nothing registered yet: no sample *)
            tick ();
            let g0 = groups.(0) in
            Metrics.add_group mr ~name:"a" g0;
            Metrics.add_group mr ~name:"a" g0;
            model.groups <- [ ("a", g0); ("a", g0) ];
            for _ = 1 to 120 + trial do
              match Random.State.int rng 12 with
              | 0 -> register ()
              | 1 | 2 -> Counter.Group.incr (pick rng groups) (pick rng names)
              | 3 ->
                  Counter.Group.add (pick rng groups) (pick rng names)
                    (Random.State.int rng 5)
              | 4 ->
                  Counter.Group.add_id groups.(3) (pick rng adopted)
                    (Random.State.int rng 5)
              | 5 ->
                  Metrics.reset_sources mr;
                  model.groups <- [];
                  model.extra <- [];
                  if Random.State.bool rng then begin
                    Spans.reset_gauges sr;
                    model.span_gauges <- []
                  end;
                  for _ = 0 to Random.State.int rng 3 do
                    register ()
                  done
              | 6 -> add_gauge ()
              | 7 -> Counter.Group.reset_all (pick rng groups)
              | 8 ->
                  let k = Random.State.int rng (Array.length values) in
                  values.(k) <- max 0 (values.(k) + Random.State.int rng 5 - 2)
              | 9 ->
                  let seg = pick rng [| Spans.Link_req; Spans.Xg_decide; Spans.Seq_e2e |] in
                  let txn = pick rng [| Spans.Get_s; Spans.Get_m; Spans.Load |] in
                  Spans.record sr seg txn ~span:0 ~addr:0 ~ts:!now ~dur:(Random.State.int rng 300)
              | _ -> tick ()
            done;
            tick ()));
    let block =
      match Metrics.Summary.blocks (Metrics.summary ~label:"ref" mr) with
      | [ b ] -> b
      | _ -> Alcotest.fail "one job block expected"
    in
    let actual =
      List.map
        (fun (s : Metrics.sample) ->
          ( s.Metrics.m_ts,
            Array.to_list s.Metrics.m_counters,
            Array.to_list s.Metrics.m_gauges,
            Array.to_list s.Metrics.m_quants ))
        block.Metrics.Summary.b_samples
    in
    let kvs = Alcotest.(list (pair string int)) in
    let quants =
      Alcotest.(list (pair (pair string string) (pair (pair int int) (pair int int))))
    in
    let flat_q = List.map (fun (s, x, n, a, b, c) -> ((s, x), ((n, a), (b, c)))) in
    check_int
      (Printf.sprintf "trial %d: sample count" trial)
      (List.length !expected) (List.length actual);
    List.iter2
      (fun (ts, ds, gs, qs) (ts', ds', gs', qs') ->
        let at what = Printf.sprintf "trial %d, ts %d: %s" trial ts what in
        check_int (at "timestamp") ts ts';
        Alcotest.check kvs (at "counter deltas") ds ds';
        Alcotest.check kvs (at "gauges") gs gs';
        Alcotest.check quants (at "quantiles") (flat_q qs) (flat_q qs'))
      (List.rev !expected) actual;
    Alcotest.check event_testable
      (Printf.sprintf "trial %d: watchdog events" trial)
      (flat_events (List.rev !expected_events))
      (flat_events block.Metrics.Summary.b_events)
  done

(* The watchdog alone on random ticks, including duplicate gauge names, an
   [.outstanding] gauge without its [.completed] partner and gauge lists
   whose shape changes from tick to tick. *)
let test_watchdog_matches_reference () =
  let rng = Random.State.make [| 42 |] in
  let delta_names =
    [| "xg.link.retransmit_frames"; "seq.loads"; "xg.a0.link.retransmit_frames"; "frames" |]
  in
  for trial = 1 to 40 do
    let cfg =
      {
        ref_config with
        Watchdog.retry_burst = 1 + Random.State.int rng 6;
        stall_ticks = 1 + Random.State.int rng 3;
        starve_ticks = 1 + Random.State.int rng 3;
      }
    in
    let w = Watchdog.create cfg and r = Ref_watchdog.create cfg in
    (* a few stable gauge layouts, as a run registers them, plus noise *)
    let layouts =
      Array.init 3 (fun _ ->
          List.init (Random.State.int rng 9) (fun _ -> pick rng gauge_names))
    in
    let layout = ref (pick rng layouts) in
    for tick = 1 to 60 do
      if Random.State.int rng 8 = 0 then layout := pick rng layouts;
      let gauges = List.map (fun n -> (n, Random.State.int rng 5)) !layout in
      let deltas =
        List.filter_map
          (fun n ->
            if Random.State.int rng 3 = 0 then None
            else Some (n, Random.State.int rng 7 - 1))
          (Array.to_list delta_names)
      in
      let now = tick * 500 in
      Alcotest.check event_testable
        (Printf.sprintf "trial %d, tick %d" trial tick)
        (flat_events (Ref_watchdog.observe r ~now ~deltas ~gauges))
        (flat_events (Watchdog.observe w ~now ~deltas ~gauges))
    done
  done

let tests =
  [
    ( "metrics",
      [
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "slo parse" `Quick test_slo_parse;
        Alcotest.test_case "slo evaluate" `Quick test_slo_evaluate;
        Alcotest.test_case "watchdog parse" `Quick test_watchdog_parse;
        Alcotest.test_case "watchdog retry storm latches" `Quick
          test_watchdog_retry_storm_latches;
        Alcotest.test_case "watchdog stall and ceiling" `Quick
          test_watchdog_stall_and_ceiling;
        Alcotest.test_case "summary merge" `Quick test_summary_merge;
        Alcotest.test_case "report stream round-trip" `Quick
          test_report_stream_roundtrip;
        Alcotest.test_case "golden stream: measure_recovery" `Quick test_golden_recovery;
        Alcotest.test_case "golden stream: armed random tester" `Quick test_golden_stress;
        Alcotest.test_case "sampler matches reference" `Quick
          test_sampler_matches_reference;
        Alcotest.test_case "watchdog matches reference" `Quick
          test_watchdog_matches_reference;
      ] );
  ]
