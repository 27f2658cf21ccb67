(* Observer purity, table-driven.  Every observer set, on one and on two
   worker domains, over a clean and a lossy, recovering link, must leave a
   campaign's non-observer outcome exactly as the unarmed one-worker run has
   it, and must produce the same artifacts on any worker count.  Link-knob
   rows hold the reliability layer, a never-tripping hang budget and an idle
   recovery policy to the same standard, unarmed.  Last, armed E3 runs must
   report the cycles of unarmed ones. *)

module Campaign = Xguard_harness.Campaign
module Config = Xguard_harness.Config
module Topology = Xguard_harness.Topology
module Perf = Xguard_harness.Perf_runner
module Tester = Xguard_harness.Random_tester
module Fuzz = Xguard_harness.Fuzz_tester
module W = Xguard_workload.Workload
module Xg_core = Xguard_xg.Xg_core
module Fault = Xguard_network.Network.Fault
module Coverage = Xguard_trace.Coverage
module Spans = Xguard_obs.Spans
module Metrics = Xguard_obs.Metrics
module Perfetto = Xguard_obs.Perfetto
module Watchdog = Xguard_obs.Watchdog

let configs =
  lazy
    (let named n = List.find (fun c -> Config.name c = n) (Config.all_configurations ()) in
     let topo =
       match Topology.of_string "hammer;a0=trans,cached;a1=full,cached" with
       | Ok t -> Config.of_topology t
       | Error e -> failwith e
     in
     [ named "hammer/xg-trans-1lvl"; named "mesi/xg-full-1lvl"; topo ])

let no = Campaign.no_observers
(* A retry-storm threshold the sparse, lossy runs below reach. *)
let wd = match Watchdog.parse "retry=8" with Ok c -> Some c | Error e -> failwith e

let observer_sets =
  [
    ("none", no);
    ("trace", { no with Campaign.trace = true });
    ("spans", { no with Campaign.spans = true });
    ("spans+timeline", { no with Campaign.spans = true; timeline = true });
    ("metrics+watchdog", { no with Campaign.metrics = true; watchdog = wd });
    ( "all",
      { Campaign.trace = true; spans = true; timeline = true; metrics = true; watchdog = wd } );
  ]

let drop p = Some { Fault.zero with Fault.drop = p; max_delay = 32 }

let lossy cfg =
  { cfg with Config.link_faults = drop 0.05; recovery = Some (Xg_core.make_recovery ()) }

let links = [ ("clean", Fun.id); ("lossy", lossy) ]

(* A sparse chaos accelerator keeps the fuzz jobs inside the time budget. *)
let chaos = { Campaign.period = Some 16; respond = None; requests_only = None; tarpit = None }

let campaign ?(observers = no) ?(workers = 1) link =
  Campaign.run ~workers ~collect_coverage:true ~stress_ops:60 ~fuzz_cpu_ops:40
    ~seeding:(Campaign.Derived 7) ~observers ~chaos Campaign.Both
    ~configs:(List.map link (Lazy.force configs))
    ~seeds:1 ()

(* The watchdog's own coverage space exists only while it is armed. *)
let observed_space name = name = "obs.watchdog"

let coverage_text sets =
  String.concat ""
    (List.filter_map
       (fun (name, space, groups) ->
         if observed_space name then None
         else Some (Coverage.to_string (Coverage.analyze space groups)))
       sets)

let counters l = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)

(* Everything a job reports that no observer may move. *)
let outcome_text (o : Campaign.outcome) =
  match o.Campaign.run with
  | Campaign.Stressed s ->
      let t = s.Campaign.tester in
      Printf.sprintf
        "%s stress ops=%d cycles=%d errors=%d deadlock=%b violations=%d link=%s q=%b \
         rejoins=%d\n%s"
        o.Campaign.label t.Tester.ops_completed t.Tester.cycles t.Tester.data_errors
        t.Tester.deadlocked s.Campaign.violations (counters s.Campaign.link_faults)
        s.Campaign.quarantined s.Campaign.rejoins (coverage_text s.Campaign.coverage)
  | Campaign.Fuzzed f ->
      Printf.sprintf
        "%s fuzz chaos=%d ops=%d/%d errors=%d deadlock=%b violations=%d link=%s q=%b \
         rejoins=%d\n%s"
        o.Campaign.label f.Fuzz.chaos_messages f.Fuzz.cpu_ops_completed f.Fuzz.cpu_ops_expected
        f.Fuzz.cpu_data_errors f.Fuzz.deadlocked f.Fuzz.violations (counters f.Fuzz.link_faults)
        f.Fuzz.quarantined f.Fuzz.rejoins (coverage_text f.Fuzz.coverage_sets)
  | Campaign.Crashed e -> o.Campaign.label ^ " crashed " ^ e

let outcome r =
  Campaign.render
    {
      r with
      Campaign.span_tables = [];
      coverage =
        List.filter
          (fun c -> not (observed_space c.Coverage.about.Coverage.name))
          r.Campaign.coverage;
    }
  :: List.map outcome_text (Array.to_list r.Campaign.outcomes)

let file_text write =
  let path = Filename.temp_file "xguard_observers" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      write path;
      In_channel.with_open_bin path In_channel.input_all)

(* Every observer artifact: span tables, timelines, the metrics stream and
   the failure trails. *)
let artifacts r =
  let span_total = r.Campaign.span_total in
  [
    (match Spans.Summary.attribution_table span_total with
    | Some t -> Xguard_stats.Table.to_string t
    | None -> "");
    Printf.sprintf "replaced=%d dropped=%d" (Spans.Summary.replaced span_total)
      (Spans.Summary.dropped span_total);
    file_text (fun path ->
        Perfetto.write_file path
          (List.filter_map
             (fun (o : Campaign.outcome) ->
               Option.map (fun rc -> (o.Campaign.label, rc)) o.Campaign.timeline)
             (Array.to_list r.Campaign.outcomes)));
    file_text (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            Metrics.write_jsonl oc ~period:Xguard_harness.System.sampler_period
              ~span_cells:(Spans.Summary.cells span_total) ~verdicts:[] r.Campaign.metrics));
  ]
  @ List.filter_map (fun (o : Campaign.outcome) -> Option.map snd (Campaign.trail o.Campaign.run))
      (Array.to_list r.Campaign.outcomes)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_lines what expected actual =
  Alcotest.(check (list string)) what expected actual

(* The per-sample counter deltas of one job's stream sum to its final link
   counters (the stream names a guard's link group "xg.link[.ID]"). *)
let check_deltas_sum what (r : Campaign.t) =
  List.iter2
    (fun (o : Campaign.outcome) (b : Metrics.Summary.block) ->
      let sums = Hashtbl.create 64 in
      List.iter
        (fun (s : Metrics.sample) ->
          Array.iter
            (fun (k, v) ->
              Hashtbl.replace sums k (v + Option.value ~default:0 (Hashtbl.find_opt sums k)))
            s.Metrics.m_counters)
        b.Metrics.Summary.b_samples;
      let link =
        match o.Campaign.run with
        | Campaign.Stressed s -> s.Campaign.link_faults
        | Campaign.Fuzzed f -> f.Fuzz.link_faults
        | Campaign.Crashed _ -> []
      in
      List.iter
        (fun (k, v) ->
          (* Fault counts come from the wire, not a stats group, so the
             stream does not carry them. *)
          if not (String.starts_with ~prefix:"injected." k || contains ".injected." k) then
            Alcotest.(check int)
              (Printf.sprintf "%s %s: deltas of %s sum to the final count" what o.Campaign.label k)
              v
              (Option.value ~default:0 (Hashtbl.find_opt sums ("xg.link." ^ k))))
        link)
    (Array.to_list r.Campaign.outcomes)
    (Metrics.Summary.blocks r.Campaign.metrics)

let test_observer_matrix () =
  List.iter
    (fun (lname, link) ->
      let base = campaign link in
      let expected = outcome base in
      List.iter
        (fun (oname, observers) ->
          let what = Printf.sprintf "%s link, %s" lname oname in
          let one = if observers = no then base else campaign ~observers link in
          let two = campaign ~observers ~workers:2 link in
          check_lines (what ^ ", -j 1: outcome as unarmed") expected (outcome one);
          check_lines (what ^ ", -j 2: outcome as unarmed") expected (outcome two);
          check_lines (what ^ ": artifacts -j 2 as -j 1") (artifacts one) (artifacts two);
          if observers.Campaign.metrics then begin
            check_deltas_sum what one;
            if lname = "lossy" then
              Alcotest.(check bool) (what ^ ": the watchdog spoke") true
                (Metrics.Summary.events one.Campaign.metrics <> [])
          end;
          if observers.Campaign.trace && lname = "lossy" then
            Alcotest.(check bool) (what ^ ": a failing job left a trail") true
              (List.exists (fun (o : Campaign.outcome) -> Campaign.trail o.Campaign.run <> None)
                 (Array.to_list one.Campaign.outcomes)))
        observer_sets)
    links

(* Unarmed link knobs that never engage: the reliability layer at drop 0,
   and a hang budget no transaction reaches or a recovery policy no fault
   triggers at drop 0.02.  None may move anything but its own gated fields,
   which the outcome text leaves out. *)
let test_link_knobs () =
  check_lines "--reliable-link at drop 0 = clean" (outcome (campaign Fun.id))
    (outcome (campaign (fun cfg -> { cfg with Config.link_faults = drop 0.0 })));
  let dropping cfg = { cfg with Config.link_faults = drop 0.02 } in
  let plain = outcome (campaign dropping) in
  check_lines "never-tripping budget at drop 0.02 = plain" plain
    (outcome
       (campaign (fun cfg ->
            { (dropping cfg) with
              Config.budgets = { Xg_core.no_budgets with Xg_core.inv_ack = Some 1_000_000 } })));
  check_lines "idle recovery policy at drop 0.02 = plain" plain
    (outcome
       (campaign (fun cfg ->
            { (dropping cfg) with Config.recovery = Some (Xg_core.make_recovery ()) })))

(* E3's cycle counts, unarmed and with every observer armed, on all twelve
   configurations: arming never stretches a run. *)
let test_armed_cycles () =
  let w = List.find (fun w -> w.W.name = "producer-consumer") (W.all ()) in
  let all = snd (List.nth observer_sets 5) in
  List.iter
    (fun cfg ->
      let plain = Perf.run cfg w in
      let armed, _, _ = Campaign.observe all ~label:"e3" (fun () -> Perf.run cfg w) in
      Alcotest.(check int) (Config.name cfg ^ ": cycles") plain.Perf.cycles armed.Perf.cycles;
      Alcotest.(check bool) (Config.name cfg ^ ": every result field") true (plain = armed))
    (Config.all_configurations ())

let tests =
  [
    ( "observers",
      [
        Alcotest.test_case "observer x workers x link matrix" `Quick test_observer_matrix;
        Alcotest.test_case "idle link knobs are invisible" `Quick test_link_knobs;
        Alcotest.test_case "armed E3 runs keep their cycles" `Quick test_armed_cycles;
      ] );
  ]
