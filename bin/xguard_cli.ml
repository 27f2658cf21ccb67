(* Command-line driver for the Crossing Guard reproduction.

   Subcommands:
     run      — run a workload on one configuration and print its statistics
     stress   — random coherence stress test (paper §4.1)
     fuzz     — bombard the guard with a pathological accelerator (paper §4)
     campaign — sharded stress/fuzz sweep over configurations × seeds
     report   — regenerate a reproduced table/figure (same as bench/main.exe)
     list     — enumerate configurations, workloads and experiments

   run/stress/fuzz accept --trace (arm the protocol event ring buffer and
   dump the per-address trail plus replay seed on failure), --trace-out FILE
   (write that trail to a file) and, for stress/fuzz/campaign, --coverage
   (print the per-controller state x event transition-coverage matrices).

   stress, fuzz and campaign accept -j N to fan their independent runs out
   over N domains (Xguard_parallel.Pool).  Results are merged in job order,
   so the output is byte-identical for any -j; only wall-clock changes.
   --trace requires -j 1 (the trace ring buffer is armed process-wide).
*)

open Cmdliner

module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Tester = Xguard_harness.Random_tester
module Fuzz = Xguard_harness.Fuzz_tester
module Perf = Xguard_harness.Perf_runner
module Experiments = Xguard_harness.Experiments
module W = Xguard_workload.Workload
module Rng = Xguard_sim.Rng
module Xg = Xguard_xg
module Trace = Xguard_trace.Trace
module Coverage = Xguard_trace.Coverage
module Pool = Xguard_parallel.Pool
module Campaign = Xguard_harness.Campaign
module Pdes = Xguard_harness.Pdes
module Network = Xguard_network.Network
module Spans = Xguard_obs.Spans
module Perfetto = Xguard_obs.Perfetto
module Metrics = Xguard_obs.Metrics
module Slo = Xguard_obs.Slo
module Watchdog = Xguard_obs.Watchdog

let find_config name =
  List.find_opt (fun c -> Config.name c = name) (Config.all_configurations ())

let config_names = List.map Config.name (Config.all_configurations ())

let find_workload name = List.find_opt (fun w -> w.W.name = name) (W.all ())

let config_arg =
  let doc =
    "System configuration, one of: " ^ String.concat ", " config_names ^ "."
  in
  Arg.(value & opt string "hammer/xg-trans-1lvl" & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let with_config name seed f =
  match find_config name with
  | None ->
      Printf.eprintf "unknown configuration %S\nknown: %s\n" name
        (String.concat ", " config_names);
      exit 1
  | Some cfg -> f { cfg with Config.seed }

(* ---- multi-accelerator topologies ---- *)

module Topology = Xguard_harness.Topology

let topology_arg =
  Arg.(value & opt (some string) None
       & info [ "topology" ] ~docv:"SPEC"
           ~doc:"Build a multi-accelerator, multi-guard system instead of a \
                 named configuration: \
                 $(b,HOST[:shards=N];ID=ATTR,...;ID=ATTR,...) — e.g. \
                 $(b,hammer:shards=2;gpu0=trans,cached;nic0=full,uncached,lat=12). \
                 See docs/TOPOLOGY.md.  Overrides $(b,--config).")

let parse_topology spec =
  match Topology.of_string spec with
  | Ok topo -> topo
  | Error e ->
      Printf.eprintf "bad --topology %S: %s\n" spec e;
      exit 1

(* [--topology] takes precedence over [--config]; both paths deliver one
   Config.t, so everything downstream is topology-agnostic. *)
let with_system_config ~topology name seed f =
  match topology with
  | Some spec -> f { (Config.of_topology (parse_topology spec)) with Config.seed }
  | None -> with_config name seed f

(* ---- tracing & coverage plumbing ---- *)

let trace_flag =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Arm the protocol event ring buffer; on failure the event trail \
                 (and the seed that replays it) is dumped.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write dumped event trails to $(docv) instead of stdout (implies $(b,--trace)).")

let coverage_flag =
  Arg.(value & flag
       & info [ "coverage" ]
           ~doc:"Print per-controller (state x event) transition-coverage matrices.")

let make_trace ~trace ~trace_out =
  if trace || trace_out <> None then Some (Trace.create ~capacity:8192 ()) else None

(* ---- transaction spans (run/stress/fuzz) ---- *)

let spans_flag =
  Arg.(value & flag
       & info [ "spans" ]
           ~doc:"Arm the transaction span layer: per-segment latency-attribution \
                 tables (p50/p95/p99/max per transaction type) are appended to \
                 the report.")

let spans_out_arg =
  Arg.(value & opt (some string) None
       & info [ "spans-out" ] ~docv:"FILE"
           ~doc:"Write the span timeline and sampler series as Chrome/Perfetto \
                 trace-event JSON to $(docv) (implies $(b,--spans)).")

(* One recorder per pool job, armed on whichever domain runs it; recorders
   come back with the results, summaries merge in job order, so span output
   is byte-identical for any -j. *)
let make_recorder ~spans ~spans_out =
  if spans || spans_out <> None then
    Some (Spans.create ~timeline:(spans_out <> None) ())
  else None

let with_spans rec_ f = match rec_ with None -> f () | Some r -> Spans.with_armed r f

let print_span_summary sum =
  match Spans.Summary.attribution_table sum with
  | None -> ()
  | Some t ->
      print_string (Xguard_stats.Table.to_string t);
      print_newline ();
      let r = Spans.Summary.replaced sum and d = Spans.Summary.dropped sum in
      if r > 0 || d > 0 then
        Printf.printf "spans: %d crossings replaced, %d timeline/sample entries dropped\n" r d

let emit_spans_out ~spans_out recs =
  match spans_out with
  | None -> ()
  | Some file ->
      Perfetto.write_file file recs;
      Printf.printf "span timeline written to %s\n" file

(* ---- streaming metrics, SLOs and the watchdog (run/stress/fuzz/campaign) ---- *)

type metrics_opts = {
  m_out : string option;
  m_prom : string option;
  m_slo : Slo.objective list option;
  m_watchdog : Watchdog.config option;
}

(* SLO and watchdog specs parse at the command line, so a bad one exits 124
   with the parser's reason before anything runs. *)
let slo_spec =
  let print fmt objs =
    Format.pp_print_string fmt (String.concat ";" (List.map Slo.objective_text objs))
  in
  Arg.conv' (Slo.parse, print)

let watchdog_spec =
  let print fmt (c : Watchdog.config) =
    Format.fprintf fmt "retry=%d,stall=%d,starve=%d" c.Watchdog.retry_burst
      c.Watchdog.stall_ticks c.Watchdog.starve_ticks;
    List.iter (fun (g, n) -> Format.fprintf fmt ",ceil:%s=%d" g n) c.Watchdog.ceilings
  in
  Arg.conv' (Watchdog.parse, print)

let metrics_on m =
  m.m_out <> None || m.m_prom <> None || m.m_slo <> None || m.m_watchdog <> None

let metrics_term =
  let out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Stream periodic telemetry samples (counter deltas, gauges, \
                   span quantiles, per-guard latency histograms, availability) \
                   as xguard-metrics-v1 JSONL to $(docv).  Byte-identical for \
                   any $(b,-j) / $(b,--sim-j).  Arms the span layer.")
  in
  let prom =
    Arg.(value & opt (some string) None
         & info [ "metrics-prom" ] ~docv:"FILE"
             ~doc:"Write an end-of-run Prometheus-style text dump to $(docv).")
  in
  let slo =
    Arg.(value & opt (some slo_spec) None
         & info [ "slo" ] ~docv:"SPEC"
             ~doc:"Judge service-level objectives after the run, e.g. \
                   $(b,xg.decide:p99<=40;seq.e2e:p99<=400;avail>=0.95). \
                   Verdicts print in the metrics block (and embed in \
                   $(b,--metrics-out)); failures never change the exit code.")
  in
  let wd =
    Arg.(value & opt ~vopt:(Some Watchdog.default) (some watchdog_spec) None
         & info [ "watchdog" ] ~docv:"SPEC"
             ~doc:"Arm the anomaly watchdog (retry storms, quiescence stalls, \
                   port starvation, gauge ceilings).  Optional $(docv) \
                   overrides the defaults: \
                   $(b,retry=64,stall=4,starve=8,ceil:NAME=LIMIT).  Trips are \
                   pure observations: they land in the OS model's anomaly \
                   ledger and the obs.watchdog coverage space, never in the \
                   simulation.")
  in
  let pack m_out m_prom m_slo m_watchdog = { m_out; m_prom; m_slo; m_watchdog } in
  Term.(const pack $ out $ prom $ slo $ wd)

(* Note each guard's availability on the armed recorder; called inside the
   job, as the run's [now] only the outcome knows is handed in. *)
let note_guard_avail (sys : System.t) ~now =
  if Metrics.on () then
    Array.iter
      (fun (g : System.guard) ->
        let guard = if g.System.g_id = "" then "xg" else "xg." ^ g.System.g_id in
        Metrics.note_avail ~guard
          ~down:(Xg.Xg_core.down_cycles g.System.g_core ~now)
          ~now)
      sys.System.guards

(* The stdout metrics block, delimited so tools/check_metrics.sh can strip it
   and compare against a metrics-off run byte-for-byte. *)
let emit_metrics ~mopts ~span_cells msum =
  if metrics_on mopts then begin
    let objectives = Option.value ~default:[] mopts.m_slo in
    let verdicts =
      Slo.evaluate objectives ~span_cells
        ~guard_hists:(Metrics.Summary.hists msum)
        ~avail:(Metrics.Summary.avails msum)
    in
    print_string "== metrics ==\n";
    Printf.printf "metrics: %d sample(s), %d job(s)\n"
      (Metrics.Summary.samples msum)
      (List.length (Metrics.Summary.blocks msum));
    let r = Metrics.Summary.replaced msum and d = Metrics.Summary.dropped msum in
    if r > 0 || d > 0 then
      Printf.printf "metrics: %d open entries replaced, %d samples dropped\n" r d;
    if mopts.m_watchdog <> None then begin
      match Metrics.Summary.trip_counts msum with
      | [] -> print_string "watchdog: no anomalies\n"
      | trips ->
          List.iter
            (fun (rule, n) -> Printf.printf "watchdog: %-14s %d trip(s)\n" rule n)
            trips
    end;
    if objectives <> [] then begin
      print_string (Xguard_stats.Table.to_string (Slo.to_table verdicts));
      let met = List.length (List.filter (fun v -> v.Slo.v_pass) verdicts) in
      Printf.printf "slo: %s (%d/%d objectives met)\n"
        (if Slo.passed verdicts then "PASS" else "FAIL")
        met (List.length verdicts)
    end;
    Option.iter
      (fun file ->
        let oc = open_out file in
        Metrics.write_jsonl oc ~period:System.sampler_period ~span_cells ~verdicts
          msum;
        close_out oc;
        Printf.printf "metrics stream written to %s\n" file)
      mopts.m_out;
    Option.iter
      (fun file ->
        let oc = open_out file in
        Metrics.write_prom oc ~span_cells msum;
        close_out oc;
        Printf.printf "prometheus dump written to %s\n" file)
      mopts.m_prom;
    print_string "== end metrics ==\n"
  end

(* ---- validated numeric converters ----

   Cycle counts reach the engine scheduler directly and probabilities the
   fault/chaos draws, so out-of-range values are refused at parse time with a
   reason instead of crashing (or silently misbehaving) mid-run.  2^40 cycles
   is far beyond any run yet keeps [now + n] clear of overflow. *)

let int_in ~min ~max =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (Printf.sprintf "invalid value %S, expected an integer" s)
    | Some n when n < min || n > max ->
        Error
          (if max = max_int then Printf.sprintf "%d out of range (want >= %d)" n min
           else Printf.sprintf "%d out of range (want %d..%d)" n min max)
    | Some n -> Ok n
  in
  Arg.conv' (parse, Arg.conv_printer Arg.int)

let cycles ~min = int_in ~min ~max:(1 lsl 40)
let positive_int = int_in ~min:1 ~max:max_int

(* A decision trail: non-negative choice indices separated by ';' or ','. *)
let trail =
  let parse spec =
    let items =
      String.split_on_char ';' spec
      |> List.concat_map (String.split_on_char ',')
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
          match int_of_string_opt item with
          | Some n when n >= 0 -> go (n :: acc) rest
          | _ ->
              Error
                (Printf.sprintf
                   "invalid decision %S in trail %S, expected a non-negative integer" item
                   spec))
    in
    go [] items
  in
  let print fmt l = Format.pp_print_string fmt (String.concat ";" (List.map string_of_int l)) in
  Arg.conv' (parse, print)

let prob =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (Printf.sprintf "invalid value %S, expected a number" s)
    | Some p when not (p >= 0.0 && p <= 1.0) ->
        Error (Printf.sprintf "%s out of range (want a probability in [0, 1])" s)
    | Some p -> Ok p
  in
  Arg.conv' (parse, Arg.conv_printer Arg.float)

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Fan independent runs out over $(docv) worker domains (1 = serial). \
                 Results are merged in job order, so output is byte-identical for \
                 any $(docv).")

(* ---- intra-run parallel simulation (run/stress/bench) ---- *)

let sim_j_arg =
  Arg.(value & opt (some int) None
       & info [ "sim-j" ] ~docv:"N"
           ~doc:"Shard $(i,one) run across $(docv) worker domains: conservative \
                 parallel discrete-event simulation along the guard links. \
                 Output is byte-identical for every $(docv) >= 1.  Composes \
                 with $(b,-j): each of the $(b,-j) seed jobs runs its own \
                 simulation on $(docv) workers.  Requires a guard topology \
                 with ordered, fault-free links (no $(b,--drop)/$(b,--recover)/\
                 jitter).")

(* Validate --sim-j against the final config (fault/recovery flags applied),
   so ineligible combinations fail with a reason instead of mid-run. *)
let check_sim_j ~sim_j cfg =
  match sim_j with
  | None -> None
  | Some j ->
      if j < 1 then begin
        Printf.eprintf "--sim-j must be >= 1\n";
        exit 1
      end;
      (match Pdes.check_config cfg with
      | Ok () -> Some j
      | Error e ->
          Printf.eprintf "--sim-j: %s\n" e;
          exit 1)

(* ---- lossy-link fault injection (stress/fuzz/campaign) ---- *)

let fault_drop_arg =
  Arg.(value & opt prob 0.0
       & info [ "fault-drop" ] ~docv:"P"
           ~doc:"Drop each XG-link message with probability $(docv); any non-zero \
                 fault probability also enables the link reliability layer.")

let fault_dup_arg =
  Arg.(value & opt prob 0.0
       & info [ "fault-dup" ] ~docv:"P"
           ~doc:"Duplicate each XG-link message with probability $(docv).")

let fault_corrupt_arg =
  Arg.(value & opt prob 0.0
       & info [ "fault-corrupt" ] ~docv:"P"
           ~doc:"Corrupt each XG-link message's payload with probability $(docv).")

let fault_delay_arg =
  Arg.(value & opt prob 0.0
       & info [ "fault-delay" ] ~docv:"P"
           ~doc:"Delay each XG-link message by a random 1..32 extra cycles with \
                 probability $(docv).")

let fault_script_arg =
  Arg.(value & opt_all string []
       & info [ "fault-script" ] ~docv:"SPEC"
           ~doc:"Deterministic fault $(b,KIND:N[:NEEDLE]) — hit the Nth link message \
                 whose trace text contains NEEDLE with KIND \
                 (drop|dup|corrupt|kill|delay@CYCLES).  Repeatable; implies the \
                 reliability layer.")

let reliable_link_flag =
  Arg.(value & flag
       & info [ "reliable-link" ]
           ~doc:"Run the link's seq+checksum reliability layer even with no \
                 injected faults (for overhead measurements).")

let apply_link_faults ~drop ~dup ~corrupt ~delay ~scripts ~reliable cfg =
  let scripts =
    List.map
      (fun s ->
        match Network.Fault.script_of_string s with
        | Ok sc -> sc
        | Error e ->
            Printf.eprintf "bad --fault-script %S: %s\n" s e;
            exit 1)
      scripts
  in
  let f =
    { Network.Fault.drop; duplicate = dup; corrupt; delay; max_delay = 32 }
  in
  if reliable || scripts <> [] || Network.Fault.active f then
    { cfg with Config.link_faults = Some f; Config.link_fault_scripts = scripts }
  else cfg

(* ---- recovery policy and hang budgets (stress/fuzz/campaign) ---- *)

let recover_flag =
  Arg.(value & flag
       & info [ "recover" ]
           ~doc:"After a quarantine, reset the link and re-admit the accelerator \
                 on probation instead of killing it for good (default recovery \
                 policy; see DESIGN.md section 12).")

let recover_lives_arg =
  Arg.(value & opt (some int) None
       & info [ "recover-lives" ] ~docv:"K"
           ~doc:"Permanently kill the link after $(docv) quarantines.  Implies \
                 $(b,--recover).")

let budget_req_arg =
  Arg.(value & opt (some (cycles ~min:1)) None
       & info [ "budget-req" ] ~docv:"CYCLES"
           ~doc:"Hang budget for the request->decision phase: an accelerator \
                 request the guard has not decided within $(docv) cycles counts \
                 as a link fault.")

let budget_inv_arg =
  Arg.(value & opt (some (cycles ~min:1)) None
       & info [ "budget-inv" ] ~docv:"CYCLES"
           ~doc:"Hang budget for the invalidate->ack phase.  Trips strictly \
                 before the coarse G2c timeout when set below it.")

let budget_fetch_arg =
  Arg.(value & opt (some (cycles ~min:1)) None
       & info [ "budget-fetch" ] ~docv:"CYCLES"
           ~doc:"Hang budget for the host fetch->data phase.")

let apply_recovery ~recover ~lives ~breq ~binv ~bfetch cfg =
  (* Both knobs default to the historical behaviour: no flag, no config
     change, byte-identical runs. *)
  let cfg =
    if recover || lives <> None then
      { cfg with
        Config.recovery = Some (Xg.Xg_core.make_recovery ?permakill_after:lives ()) }
    else cfg
  in
  if breq <> None || binv <> None || bfetch <> None then
    { cfg with
      Config.budgets = { Xg.Xg_core.req_decide = breq; inv_ack = binv; fetch_data = bfetch } }
  else cfg

let injected_total counts =
  List.fold_left
    (fun n (k, v) ->
      if String.length k > 9 && String.sub k 0 9 = "injected." then n + v else n)
    0 counts

let count_of counts label = Option.value ~default:0 (List.assoc_opt label counts)

(* The trace ring buffer is armed process-wide (Trace.with_armed), so traced
   sweeps must stay on one domain. *)
let check_trace_jobs ~jobs tr =
  if jobs > 1 && tr <> None then begin
    Printf.eprintf "--trace/--trace-out require -j 1\n";
    exit 1
  end

let maybe_armed tr f = match tr with None -> f () | Some tr -> Trace.with_armed tr f

let tail_events = 60

(* Print a dumped trail, or write it to --trace-out. *)
let emit_trail ~trace_out ~header text =
  if text <> "" then
    match trace_out with
    | None -> Printf.printf "%s\n%s\n" header text
    | Some file ->
        let oc = open_out file in
        Printf.fprintf oc "%s\n%s\n" header text;
        close_out oc;
        Printf.printf "event trail written to %s\n" file

let print_coverage_sets sets =
  List.iter
    (fun (_, space, groups) ->
      print_string (Coverage.to_string (Coverage.analyze space groups));
      print_newline ())
    sets

(* ---- run ---- *)

let run_cmd =
  let workload_arg =
    let doc = "Workload: streaming, blocked, graph, write-coalesce, producer-consumer." in
    Arg.(value & opt string "blocked" & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc)
  in
  let action config topology workload seed sim_j trace trace_out spans spans_out mopts =
    with_system_config ~topology config seed (fun cfg ->
        match find_workload workload with
        | None ->
            Printf.eprintf "unknown workload %S\n" workload;
            exit 1
        | Some w ->
            let sim_j = check_sim_j ~sim_j cfg in
            let tr = make_trace ~trace ~trace_out in
            (* Metrics always ride an armed span recorder (quantile sampling
               reads it); the span tables stay opt-in via --spans. *)
            let rec_ =
              if metrics_on mopts then
                Some (Spans.create ~timeline:(spans_out <> None) ())
              else make_recorder ~spans ~spans_out
            in
            let mrec =
              if metrics_on mopts then Some (Metrics.create ?watchdog:mopts.m_watchdog ())
              else None
            in
            let with_obs f =
              with_spans rec_ (fun () ->
                  match mrec with None -> f () | Some m -> Metrics.with_armed m f)
            in
            (try
               let r = with_obs (fun () -> Perf.run ?trace:tr ?sim_j cfg w) in
               Printf.printf "configuration      %s\n" r.Perf.config_name;
               Printf.printf "workload           %s (%s)\n" w.W.name w.W.description;
               Printf.printf "cycles             %d\n" r.Perf.cycles;
               Printf.printf "accel accesses     %d\n" r.Perf.accel_accesses;
               Printf.printf "mean latency       %.1f cycles\n" r.Perf.mean_accel_latency;
               Printf.printf "p99 latency        %d cycles\n" r.Perf.p99_accel_latency;
               Printf.printf "host bytes         %d\n" r.Perf.host_bytes;
               Printf.printf "link bytes         %d\n" r.Perf.link_bytes;
               Printf.printf "guard violations   %d\n" r.Perf.violations;
               Option.iter
                 (fun rc ->
                   let sum = Spans.summary rc in
                   if spans || spans_out <> None then print_span_summary sum;
                   emit_spans_out ~spans_out [ (w.W.name, rc) ];
                   Option.iter
                     (fun m ->
                       emit_metrics ~mopts
                         ~span_cells:(Spans.Summary.cells sum)
                         (Metrics.summary ~label:"run" m))
                     mrec)
                 rec_
             with e ->
               Option.iter
                 (fun tr ->
                   emit_trail ~trace_out
                     ~header:
                       (Printf.sprintf "-- event trail, last %d events (replay with --seed %d) --"
                          tail_events cfg.Config.seed)
                     (Trace.dump ~last:tail_events tr))
                 tr;
               Printf.eprintf "run failed: %s\n" (Printexc.to_string e);
               exit 1))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload on one configuration")
    Term.(const action $ config_arg $ topology_arg $ workload_arg $ seed_arg $ sim_j_arg
          $ trace_flag $ trace_out_arg $ spans_flag $ spans_out_arg $ metrics_term)

(* ---- stress ---- *)

let stress_cmd =
  let ops_arg =
    Arg.(value & opt int 500 & info [ "ops" ] ~docv:"N" ~doc:"Operations per core.")
  in
  let seeds_arg =
    Arg.(value & opt positive_int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let action config topology seed ops seeds jobs sim_j trace trace_out coverage spans
      spans_out mopts drop dup corrupt delay scripts reliable recover lives breq binv
      bfetch =
    with_system_config ~topology config seed (fun base ->
        let base =
          apply_link_faults ~drop ~dup ~corrupt ~delay ~scripts ~reliable base
        in
        let base = apply_recovery ~recover ~lives ~breq ~binv ~bfetch base in
        let sim_j = check_sim_j ~sim_j base in
        let tr = make_trace ~trace ~trace_out in
        check_trace_jobs ~jobs tr;
        (* Each seed is one pool job producing its report line, optional
           failure trail and coverage groups; printing happens afterwards in
           seed order, so -j N output is byte-identical to -j 1. *)
        let results =
          Pool.map ~workers:jobs ~jobs:seeds (fun i ->
              let s = seed + i in
              let cfg = Config.stress_sized { base with Config.seed = s } in
              let rec_ =
                if metrics_on mopts then
                  Some (Spans.create ~timeline:(spans_out <> None) ())
                else make_recorder ~spans ~spans_out
              in
              let mrec =
                if metrics_on mopts then
                  Some (Metrics.create ?watchdog:mopts.m_watchdog ())
                else None
              in
              let run_body () =
                match sim_j with
                | Some j ->
                    (* One tester per domain over disjoint address slices —
                       comparable across any --sim-j value, not with the
                       shared-address sequential tester above. *)
                    Option.iter Trace.clear tr;
                    maybe_armed tr (fun () ->
                        Pdes.run_stress ~workers:j ~seed:s ~ops_per_core:ops cfg)
                | None ->
                    let sys = System.build cfg in
                    let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
                    Option.iter Trace.clear tr;
                    let o =
                      maybe_armed tr (fun () ->
                          Tester.run ~engine:sys.System.engine ~rng:(Rng.create ~seed:(s * 7 + 1))
                            ~ports ~addresses:(Array.init 6 Addr.block) ~ops_per_core:ops ())
                    in
                    (sys, o)
              in
              let sys, o =
                with_spans rec_ (fun () ->
                    match mrec with
                    | None -> run_body ()
                    | Some m ->
                        Metrics.with_armed m (fun () ->
                            let sys, o = run_body () in
                            note_guard_avail sys ~now:o.Tester.cycles;
                            (sys, o)))
              in
              let viol = Xg.Os_model.error_count sys.System.os in
              let bad = o.Tester.data_errors > 0 || o.Tester.deadlocked || viol > 0 in
              let link = sys.System.link_stats () in
              let link_part =
                (* Empty when the link cannot fault, so fault-free output is
                   byte-identical to the historical report. *)
                if link = [] then ""
                else
                  Printf.sprintf " link[inj=%d retx=%d q=%b]" (injected_total link)
                    (count_of link "retransmit_frames")
                    (sys.System.quarantined ())
              in
              let recovery_part =
                (* Printed only when a recovery policy or a budget is
                   configured, so default runs stay byte-identical. *)
                let sum f =
                  Array.fold_left (fun n g -> n + f g.System.g_core) 0 sys.System.guards
                in
                let parts = [] in
                let parts =
                  if cfg.Config.budgets <> Xg.Xg_core.no_budgets then
                    Printf.sprintf "trips=%d" (sum Xg.Xg_core.budget_trips) :: parts
                  else parts
                in
                let parts =
                  if cfg.Config.recovery <> None then
                    Printf.sprintf "rejoins=%d kill=%b" (sum Xg.Xg_core.rejoins)
                      (Array.exists
                         (fun g -> Xg.Xg_core.permakilled g.System.g_core)
                         sys.System.guards)
                    :: parts
                  else parts
                in
                if parts = [] then ""
                else Printf.sprintf " rec[%s]" (String.concat " " parts)
              in
              let line =
                Printf.sprintf
                  "seed %-6d ops=%-6d data_errors=%-3d deadlock=%-5b violations=%-3d %s%s%s"
                  s o.Tester.ops_completed o.Tester.data_errors o.Tester.deadlocked viol
                  (if bad then "FAIL" else "ok")
                  link_part recovery_part
              in
              let trail =
                if bad then
                  Option.map
                    (fun tr ->
                      let addr = o.Tester.first_error_addr in
                      ( Printf.sprintf
                          "-- seed %d event trail%s (replay with --seed %d --seeds 1) --" s
                          (match addr with
                          | Some a -> Printf.sprintf " for block 0x%x" a
                          | None -> "")
                          s,
                        Trace.dump ?addr ~last:tail_events tr ))
                    tr
                else None
              in
              let cov = if coverage then Some (sys.System.coverage_sets ()) else None in
              (line, bad, trail, cov, rec_, mrec))
        in
        let failures = ref 0 in
        let cov_runs = ref [] in
        let span_sum = ref Spans.Summary.empty in
        let span_recs = ref [] in
        let metrics_sum = ref Metrics.Summary.empty in
        Array.iteri
          (fun i result ->
            match result with
            | Pool.Failed e ->
                (* Crash isolation: the wedged seed reports as a failure
                   instead of killing the sweep. *)
                incr failures;
                Printf.printf "seed %-6d CRASH %s FAIL\n" (seed + i) e
            | Pool.Done (line, bad, trail, cov, rec_, mrec) ->
                if bad then incr failures;
                Option.iter (fun c -> cov_runs := c :: !cov_runs) cov;
                Option.iter
                  (fun rc ->
                    span_sum := Spans.Summary.merge !span_sum (Spans.summary rc);
                    span_recs := (Printf.sprintf "seed %d" (seed + i), rc) :: !span_recs)
                  rec_;
                Option.iter
                  (fun m ->
                    metrics_sum :=
                      Metrics.Summary.merge !metrics_sum
                        (Metrics.summary ~label:(Printf.sprintf "seed %d" (seed + i)) m))
                  mrec;
                Printf.printf "%s\n" line;
                Option.iter (fun (header, text) -> emit_trail ~trace_out ~header text) trail)
          results;
        if coverage then begin
          match List.rev !cov_runs with
          | [] -> ()
          | first :: _ as runs ->
              List.iter
                (fun (name, space, _) ->
                  let groups =
                    List.concat_map
                      (fun run ->
                        List.concat_map (fun (n, _, gs) -> if n = name then gs else []) run)
                      runs
                  in
                  print_string (Coverage.to_string (Coverage.analyze space groups));
                  print_newline ())
                first
        end;
        if spans || spans_out <> None then print_span_summary !span_sum;
        emit_spans_out ~spans_out (List.rev !span_recs);
        emit_metrics ~mopts ~span_cells:(Spans.Summary.cells !span_sum) !metrics_sum;
        Printf.printf "%s\n" (if !failures = 0 then "PASS" else "FAIL");
        if !failures > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "stress" ~doc:"Random coherence stress test (paper section 4.1)")
    Term.(const action $ config_arg $ topology_arg $ seed_arg $ ops_arg $ seeds_arg
          $ jobs_arg $ sim_j_arg $ trace_flag $ trace_out_arg $ coverage_flag $ spans_flag
          $ spans_out_arg $ metrics_term $ fault_drop_arg $ fault_dup_arg
          $ fault_corrupt_arg $ fault_delay_arg $ fault_script_arg $ reliable_link_flag
          $ recover_flag $ recover_lives_arg $ budget_req_arg $ budget_inv_arg
          $ budget_fetch_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let mute_arg =
    Arg.(value & flag & info [ "mute" ] ~doc:"The accelerator never answers invalidations.")
  in
  let timeout_arg =
    Arg.(value & opt (some (cycles ~min:1)) None
         & info [ "timeout" ] ~docv:"CYCLES"
             ~doc:"Override the guard's invalidation timeout.  A huge value with \
                   $(b,--mute) disables the paper's timeout defense and forces a \
                   deadlock, to exercise the $(b,--trace) forensics path.")
  in
  let seeds_arg =
    Arg.(value & opt positive_int 1
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Sweep $(docv) consecutive seeds; outcomes are merged \
                   (Fuzz_tester.merge) into one report.")
  in
  let chaos_period_arg =
    Arg.(value & opt (some (cycles ~min:1)) None
         & info [ "chaos-period" ] ~docv:"CYCLES"
             ~doc:"Cycles between chaos-accelerator injections (smaller = denser \
                   bombardment).")
  in
  let chaos_respond_arg =
    Arg.(value & opt (some prob) None
         & info [ "chaos-respond-prob" ] ~docv:"P"
             ~doc:"Probability the chaos accelerator answers an Invalidate at all \
                   (with a random, possibly wrong, response).  0.0 never answers — \
                   the G2c-timeout path.")
  in
  let chaos_requests_only_flag =
    Arg.(value & flag
         & info [ "chaos-requests-only" ]
             ~doc:"Inject only syntactically valid requests, no spontaneous \
                   responses.")
  in
  let chaos_tarpit_arg =
    Arg.(value & opt (some (cycles ~min:0)) None
         & info [ "chaos-tarpit" ] ~docv:"CYCLES"
             ~doc:"Slow-but-honest mode: answer every Invalidate with a correct \
                   Inv_ack exactly $(docv) cycles late.  With $(b,--budget-inv) \
                   below $(docv), every invalidation trips the budget; without \
                   budgets only the coarse G2c timeout can notice.  Overrides \
                   $(b,--chaos-respond-prob).")
  in
  let action config topology seed seeds jobs mute timeout trace trace_out coverage spans
      spans_out mopts drop dup corrupt delay scripts reliable chaos_period chaos_respond
      chaos_requests_only chaos_tarpit recover lives breq binv bfetch =
    with_system_config ~topology config seed (fun cfg ->
        if not (Config.uses_xg cfg) then begin
          Printf.eprintf "fuzzing needs a Crossing Guard configuration\n";
          exit 1
        end;
        let cfg =
          apply_link_faults ~drop ~dup ~corrupt ~delay ~scripts ~reliable cfg
        in
        let cfg = apply_recovery ~recover ~lives ~breq ~binv ~bfetch cfg in
        let cfg =
          match timeout with None -> cfg | Some t -> { cfg with Config.xg_timeout = t }
        in
        (* --mute is shorthand for the never-answer chaos shape; explicit
           chaos flags compose with (and refine) it. *)
        let respond_probability = if mute then Some 0.0 else chaos_respond in
        let requests_only = if mute || chaos_requests_only then Some true else None in
        let tr = make_trace ~trace ~trace_out in
        check_trace_jobs ~jobs tr;
        let results =
          Pool.map ~workers:jobs ~jobs:seeds (fun i ->
              let cfg = { cfg with Config.seed = seed + i } in
              let rec_ =
                if metrics_on mopts then
                  Some (Spans.create ~timeline:(spans_out <> None) ())
                else make_recorder ~spans ~spans_out
              in
              let mrec =
                if metrics_on mopts then
                  Some (Metrics.create ?watchdog:mopts.m_watchdog ())
                else None
              in
              Option.iter Trace.clear tr;
              let body () =
                Fuzz.run cfg ?chaos_period ?respond_probability ?requests_only
                  ?tarpit:chaos_tarpit ?trace:tr ()
              in
              let o =
                with_spans rec_ (fun () ->
                    match mrec with
                    | None -> body ()
                    | Some m -> Metrics.with_armed m body)
              in
              (o, rec_, mrec))
        in
        let pool_crashes = ref 0 in
        let merged = ref None in
        let span_sum = ref Spans.Summary.empty in
        let span_recs = ref [] in
        let metrics_sum = ref Metrics.Summary.empty in
        Array.iteri
          (fun i result ->
            match result with
            | Pool.Failed e ->
                incr pool_crashes;
                Printf.printf "seed %-6d CRASH %s FAIL\n" (seed + i) e
            | Pool.Done (o, rec_, mrec) ->
                Option.iter
                  (fun rc ->
                    span_sum := Spans.Summary.merge !span_sum (Spans.summary rc);
                    span_recs := (Printf.sprintf "seed %d" (seed + i), rc) :: !span_recs)
                  rec_;
                Option.iter
                  (fun m ->
                    metrics_sum :=
                      Metrics.Summary.merge !metrics_sum
                        (Metrics.summary ~label:(Printf.sprintf "seed %d" (seed + i)) m))
                  mrec;
                if seeds > 1 then
                  Printf.printf
                    "seed %-6d chaos=%-6d ops=%d/%d crashed=%-3s deadlock=%-5b violations=%-4d %s\n"
                    o.Fuzz.seed o.Fuzz.chaos_messages o.Fuzz.cpu_ops_completed
                    o.Fuzz.cpu_ops_expected
                    (match o.Fuzz.crashed with Some _ -> "yes" | None -> "no")
                    o.Fuzz.deadlocked o.Fuzz.violations
                    (if o.Fuzz.crashed <> None || o.Fuzz.deadlocked then "FAIL" else "ok");
                merged := Some (match !merged with None -> o | Some m -> Fuzz.merge m o))
          results;
        (match !merged with None -> Printf.printf "no run completed\n"; exit 1 | Some _ -> ());
        let o = Option.get !merged in
        Printf.printf "chaos msgs sent    %d\n" o.Fuzz.chaos_messages;
        Printf.printf "invals ignored     %d\n" o.Fuzz.invalidations_ignored;
        Printf.printf "cpu ops            %d/%d\n" o.Fuzz.cpu_ops_completed o.Fuzz.cpu_ops_expected;
        Printf.printf "crashed            %s\n"
          (match o.Fuzz.crashed with Some c -> c.Fuzz.exn_text | None -> "no");
        Printf.printf "deadlocked         %b\n" o.Fuzz.deadlocked;
        Printf.printf "violations         %d\n" o.Fuzz.violations;
        List.iter
          (fun (k, n) -> Printf.printf "  %-36s %d\n" (Xg.Os_model.error_kind_to_string k) n)
          o.Fuzz.violations_by_kind;
        if o.Fuzz.link_faults <> [] then begin
          Printf.printf "link quarantined   %b\n" o.Fuzz.quarantined;
          List.iter
            (fun (k, n) -> Printf.printf "  link.%-32s %d\n" k n)
            o.Fuzz.link_faults
        end;
        (* Gated on the flags, like the link block above, so default output
           stays byte-identical. *)
        if cfg.Config.recovery <> None then begin
          Printf.printf "link rejoins       %d\n" o.Fuzz.rejoins;
          Printf.printf "permakilled        %b\n" o.Fuzz.permakilled
        end;
        if cfg.Config.budgets <> Xg.Xg_core.no_budgets then
          Printf.printf "budget trips       %d\n" o.Fuzz.budget_trips;
        if coverage then print_coverage_sets o.Fuzz.coverage_sets;
        if spans || spans_out <> None then print_span_summary !span_sum;
        emit_spans_out ~spans_out (List.rev !span_recs);
        emit_metrics ~mopts ~span_cells:(Spans.Summary.cells !span_sum) !metrics_sum;
        let tail =
          match o.Fuzz.crashed with
          | Some c -> c.Fuzz.trace_tail
          | None -> o.Fuzz.trace_tail
        in
        if tail <> [] then begin
          let dropped_line =
            (* Forensics readers must know when the ring wrapped and the trail
               is incomplete. *)
            let d = o.Fuzz.trace_dropped in
            if d = 0 then []
            else
              [ Printf.sprintf "(%d event%s dropped — ring wrapped)" d
                  (if d = 1 then "" else "s") ]
          in
          emit_trail ~trace_out
            ~header:
              (Printf.sprintf "-- failure event trail%s (replay with --seed %d) --"
                 (match o.Fuzz.first_error_addr with
                 | Some a -> Printf.sprintf " for block 0x%x" a
                 | None -> "")
                 o.Fuzz.seed)
            (String.concat "\n" (dropped_line @ List.map Trace.format_event tail))
        end;
        if o.Fuzz.crashed <> None || o.Fuzz.deadlocked || !pool_crashes > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Bombard the guard with a pathological accelerator")
    Term.(const action $ config_arg $ topology_arg $ seed_arg $ seeds_arg $ jobs_arg
          $ mute_arg $ timeout_arg $ trace_flag $ trace_out_arg $ coverage_flag
          $ spans_flag $ spans_out_arg $ metrics_term $ fault_drop_arg $ fault_dup_arg
          $ fault_corrupt_arg $ fault_delay_arg $ fault_script_arg $ reliable_link_flag
          $ chaos_period_arg $ chaos_respond_arg $ chaos_requests_only_flag
          $ chaos_tarpit_arg $ recover_flag $ recover_lives_arg $ budget_req_arg
          $ budget_inv_arg $ budget_fetch_arg)

(* ---- campaign ---- *)

let campaign_cmd =
  let config_arg =
    let doc =
      "Configuration to sweep, or $(b,all) for the full 12-configuration matrix. \
       Known: " ^ String.concat ", " config_names ^ "."
    in
    Arg.(value & opt string "all" & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)
  in
  let seeds_arg =
    Arg.(value & opt positive_int 20
         & info [ "seeds" ] ~docv:"N" ~doc:"Runs per configuration per campaign kind.")
  in
  let kind_arg =
    let kinds = [ ("stress", Campaign.Stress); ("fuzz", Campaign.Fuzz); ("both", Campaign.Both) ] in
    Arg.(value & opt (enum kinds) Campaign.Both
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"$(b,stress) (random coherence tester, every configuration), \
                   $(b,fuzz) (chaos accelerator, XG configurations) or $(b,both).")
  in
  let ops_arg =
    Arg.(value & opt int 500
         & info [ "ops" ] ~docv:"N" ~doc:"Stress operations per core per run.")
  in
  let cpu_ops_arg =
    Arg.(value & opt int 300
         & info [ "cpu-ops" ] ~docv:"N" ~doc:"Checked CPU operations per core per fuzz run.")
  in
  let action config topology seeds jobs kind ops cpu_ops seed coverage spans mopts trace
      trace_out drop dup corrupt delay scripts reliable recover lives breq binv bfetch =
    let configs =
      match topology with
      | Some spec -> [ Config.of_topology (parse_topology spec) ]
      | None ->
          if config = "all" then Config.all_configurations ()
          else (
            match find_config config with
            | Some c -> [ c ]
            | None ->
                Printf.eprintf "unknown configuration %S\nknown: all, %s\n" config
                  (String.concat ", " config_names);
                exit 1)
    in
    let configs =
      List.map (apply_link_faults ~drop ~dup ~corrupt ~delay ~scripts ~reliable) configs
    in
    let configs = List.map (apply_recovery ~recover ~lives ~breq ~binv ~bfetch) configs in
    let tr = make_trace ~trace ~trace_out in
    check_trace_jobs ~jobs tr;
    let result =
      Campaign.run ~workers:jobs ~collect_coverage:coverage ~stress_ops:ops
        ~fuzz_cpu_ops:cpu_ops ~base_seed:seed ~spans ~metrics:(metrics_on mopts)
        ?watchdog:mopts.m_watchdog ?trace:tr kind ~configs ~seeds ()
    in
    print_string (Campaign.render result);
    emit_metrics ~mopts
      ~span_cells:(Spans.Summary.cells result.Campaign.span_total)
      result.Campaign.metrics;
    (* All shards' failure trails go out in one emit so --trace-out holds the
       full set (emit_trail truncates its file on every call). *)
    (match result.Campaign.trails with
    | [] -> ()
    | trails ->
        emit_trail ~trace_out ~header:"== campaign failure trails =="
          (String.concat "\n" (List.map (fun (h, t) -> h ^ "\n" ^ t) trails)));
    if not (Campaign.passed result) then exit 1
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Sharded stress/fuzz sweep over configurations x seeds (paper section 4)"
       ~man:
         [
           `S Manpage.s_description;
           `P "Shards the paper's evaluation matrix — configurations x seeds, for \
               the random coherence tester and the guard fuzzer — into independent \
               jobs executed by a fixed pool of worker domains.  Each job's seed is \
               derived deterministically from the base seed and the job's position, \
               outcomes are merged in job order with the pure merge functions of \
               the stats/coverage/harness layers, and the rendered report is \
               byte-identical for any $(b,-j).  A crashing job is isolated and \
               reported as a failed run for its configuration.";
         ])
    Term.(const action $ config_arg $ topology_arg $ seeds_arg $ jobs_arg $ kind_arg
          $ ops_arg $ cpu_ops_arg $ seed_arg $ coverage_flag $ spans_flag $ metrics_term
          $ trace_flag $ trace_out_arg $ fault_drop_arg $ fault_dup_arg
          $ fault_corrupt_arg $ fault_delay_arg $ fault_script_arg $ reliable_link_flag
          $ recover_flag $ recover_lives_arg $ budget_req_arg $ budget_inv_arg
          $ budget_fetch_arg)

(* ---- report ---- *)

(* The health-dashboard half of `xguard report`: merge one or more
   xguard-metrics-v1 streams (campaign shards, separate runs) into one
   terminal — and optionally HTML — health report. *)

module Table = Xguard_stats.Table
module Histogram = Xguard_stats.Histogram

let read_lines file =
  let ic =
    try open_in file
    with Sys_error e ->
      Printf.eprintf "cannot read metrics stream: %s\n" e;
      exit 1
  in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let hist_cells h =
  let q p = match Histogram.quantile h p with None -> "-" | Some v -> Table.cell_int v in
  [ Table.cell_int (Histogram.count h); q 0.5; q 0.99; q 1.0 ]

(* Sum availability triples per guard, first-seen order. *)
let avail_rows avails =
  List.fold_left
    (fun acc (g, down, now) ->
      let rec bump = function
        | [] -> [ (g, down, now) ]
        | (g', d', n') :: rest ->
            if g' = g then (g', d' + down, n' + now) :: rest
            else (g', d', n') :: bump rest
      in
      bump acc)
    [] avails

let health_tables rep ~objectives =
  let tables = ref [] in
  let add t = tables := t :: !tables in
  let streams = Metrics.Report.streams rep in
  let t = Table.create ~title:"Merged metric streams" ~columns:[ "stream"; "samples" ] in
  List.iter (fun (name, n) -> Table.add_row t [ name; Table.cell_int n ]) streams;
  add t;
  (match Metrics.Report.guard_hists rep with
  | [] -> ()
  | hists ->
      let t =
        Table.create ~title:"Per-guard latency (cycles)"
          ~columns:[ "guard"; "metric"; "n"; "p50"; "p99"; "max" ]
      in
      List.iter
        (fun ((guard, metric), h) -> Table.add_row t ([ guard; metric ] @ hist_cells h))
        hists;
      add t);
  (match Metrics.Report.span_cells rep with
  | [] -> ()
  | cells ->
      let t =
        Table.create ~title:"Segment latency (cycles)"
          ~columns:[ "segment"; "txn"; "n"; "p50"; "p99"; "max" ]
      in
      List.iter
        (fun (seg, txn, h) -> Table.add_row t ([ seg; txn ] @ hist_cells h))
        cells;
      add t);
  (match avail_rows (Metrics.Report.avails rep) with
  | [] -> ()
  | rows ->
      let t =
        Table.create ~title:"Guard availability"
          ~columns:[ "guard"; "down"; "cycles"; "availability" ]
      in
      List.iter
        (fun (g, down, now) ->
          let a = if now = 0 then 1.0 else 1.0 -. (float_of_int down /. float_of_int now) in
          Table.add_row t
            [ g; Table.cell_int down; Table.cell_int now; Printf.sprintf "%.4f" a ])
        rows;
      add t);
  let trips = Metrics.Report.trips rep in
  (match trips with
  | [] -> ()
  | _ ->
      let t =
        Table.create ~title:"Watchdog trips"
          ~columns:[ "rule"; "ts"; "stream"; "detail" ]
      in
      List.iter
        (fun (rule, ts, stream, detail) ->
          Table.add_row t [ rule; Table.cell_int ts; stream; detail ])
        trips;
      add t);
  (* SLO verdicts: re-judged over the merged data when --slo was given,
     otherwise the verdicts each stream embedded. *)
  let verdicts =
    match objectives with
    | [] ->
        List.map snd (Metrics.Report.verdicts rep)
    | objectives ->
        Slo.evaluate objectives
          ~span_cells:(Metrics.Report.span_cells rep)
          ~guard_hists:(Metrics.Report.guard_hists rep)
          ~avail:(Metrics.Report.avails rep)
  in
  if verdicts <> [] then
    add (Slo.to_table ~title:"SLO verdicts" verdicts);
  (List.rev !tables, verdicts, trips)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_html_report file ~healthy ~status tables =
  let oc = open_out file in
  output_string oc
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n\
     <title>xguard health report</title>\n\
     <style>\n\
     body{font-family:system-ui,sans-serif;margin:2em;max-width:72em}\n\
     h1{font-size:1.4em} h2{font-size:1.1em;margin-top:1.5em}\n\
     table{border-collapse:collapse;margin:0.5em 0}\n\
     th,td{border:1px solid #ccc;padding:0.25em 0.6em;font-size:0.9em;\
     text-align:left;font-variant-numeric:tabular-nums}\n\
     th{background:#f0f0f0}\n\
     .ok{color:#0a0} .bad{color:#c00}\n\
     </style></head><body>\n<h1>xguard health report</h1>\n";
  Printf.fprintf oc "<p class=\"%s\"><strong>%s</strong></p>\n"
    (if healthy then "ok" else "bad")
    (html_escape status);
  List.iter
    (fun t ->
      Printf.fprintf oc "<h2>%s</h2>\n<table>\n<tr>" (html_escape (Table.title t));
      List.iter (fun c -> Printf.fprintf oc "<th>%s</th>" (html_escape c)) (Table.columns t);
      output_string oc "</tr>\n";
      List.iter
        (fun row ->
          output_string oc "<tr>";
          List.iter (fun c -> Printf.fprintf oc "<td>%s</td>" (html_escape c)) row;
          output_string oc "</tr>\n")
        (Table.rows t);
      output_string oc "</table>\n")
    tables;
  output_string oc "</body></html>\n";
  close_out oc

let health_report ~objectives ~html files =
  let rep =
    List.fold_left
      (fun acc file ->
        match
          Metrics.Report.add_stream acc ~name:(Filename.basename file)
            (read_lines file)
        with
        | Ok rep -> rep
        | Error e ->
            Printf.eprintf "bad metrics stream %s: %s\n" file e;
            exit 1)
      Metrics.Report.empty files
  in
  let tables, verdicts, trips = health_tables rep ~objectives in
  let failed = List.filter (fun v -> not v.Slo.v_pass) verdicts in
  let healthy = failed = [] && trips = [] in
  let status =
    if healthy then
      Printf.sprintf "HEALTHY — %d stream(s), %d sample(s), %d/%d SLO objective(s) met"
        (List.length (Metrics.Report.streams rep))
        (Metrics.Report.samples rep)
        (List.length verdicts) (List.length verdicts)
    else
      Printf.sprintf
        "DEGRADED — %d SLO verdict(s) failing, %d watchdog trip(s) across %d stream(s)"
        (List.length failed) (List.length trips)
        (List.length (Metrics.Report.streams rep))
  in
  Printf.printf "== xguard health report ==\n%s\n\n" status;
  List.iter
    (fun t ->
      print_string (Table.to_string t);
      print_newline ())
    tables;
  Option.iter
    (fun file ->
      write_html_report file ~healthy ~status tables;
      Printf.printf "html report written to %s\n" file)
    html

let report_cmd =
  let id_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment id (t1 f1 f2 e1-e11 a1 a2) or 'all'.")
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced-size run.") in
  let metrics_files_arg =
    Arg.(value & opt_all string []
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Merge the xguard-metrics-v1 stream in $(docv) (repeatable) \
                   into one health report — per-guard latency, availability, \
                   watchdog trips and SLO verdicts — instead of regenerating \
                   an experiment.")
  in
  let slo_arg =
    Arg.(value & opt (some slo_spec) None
         & info [ "slo" ] ~docv:"SPEC"
             ~doc:"Re-judge these objectives against the merged streams \
                   (default: show the verdicts embedded in each stream).")
  in
  let html_arg =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE"
             ~doc:"Also write the health report as a standalone HTML page.")
  in
  let action id quick metrics slo html =
    if metrics <> [] then
      health_report ~objectives:(Option.value ~default:[] slo) ~html metrics
    else
      let print (r : Experiments.report) =
        Printf.printf "== %s ==\n" r.Experiments.title;
        List.iter (fun t -> print_string (Xguard_stats.Table.to_string t); print_newline ())
          r.Experiments.tables
      in
      if id = "all" then List.iter print (Experiments.all ~quick ())
      else
        match Experiments.by_id id with
        | Some f -> print (f ~quick ())
        | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" id
              (String.concat ", " Experiments.ids);
            exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate a reproduced table/figure, or merge metric streams \
             into a health report")
    Term.(const action $ id_arg $ quick_arg $ metrics_files_arg $ slo_arg $ html_arg)

(* ---- list ---- *)

let list_cmd =
  let action () =
    Printf.printf "configurations:\n";
    List.iter (fun n -> Printf.printf "  %s\n" n) config_names;
    Printf.printf "workloads:\n";
    List.iter (fun w -> Printf.printf "  %-18s %s\n" w.W.name w.W.description) (W.all ());
    Printf.printf "experiments:\n  %s\n" (String.concat " " Experiments.ids)
  in
  Cmd.v (Cmd.info "list" ~doc:"List configurations, workloads and experiments")
    Term.(const action $ const ())

(* ---- check ---- *)

module Checker = Xguard_check.Checker

let check_cmd =
  let plan_names = List.map fst (Checker.tiny_plans ()) in
  let configs_arg =
    Arg.(value & opt_all string []
         & info [ "c"; "config" ] ~docv:"NAME"
             ~doc:("Tiny configuration(s) to check, repeatable; default all. One of: "
                   ^ String.concat ", " plan_names ^ "."))
  in
  let max_depth_arg =
    Arg.(value & opt (some positive_int) None
         & info [ "max-depth" ] ~docv:"N" ~doc:"Decision budget per path.")
  in
  let max_states_arg =
    Arg.(value & opt (some positive_int) None
         & info [ "max-states" ] ~docv:"N" ~doc:"Distinct-fingerprint budget.")
  in
  let no_por_flag =
    Arg.(value & flag
         & info [ "no-por" ]
             ~doc:"Branch on every same-cycle candidate instead of firing \
                   provably-commuting events directly (bigger but \
                   reduction-free state graph).")
  in
  let budget_arg =
    Arg.(value & opt (some float) None
         & info [ "budget" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget: configurations not yet started when it \
                   expires are skipped (exploration in progress is finished).")
  in
  let baseline_arg =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Compare each summary against $(docv) and fail on any drift \
                   in state/transition counts or set digests.")
  in
  let write_baseline_arg =
    Arg.(value & opt (some string) None
         & info [ "write-baseline" ] ~docv:"FILE"
             ~doc:"Write the summaries to $(docv) in baseline format.")
  in
  let replay_arg =
    Arg.(value & opt (some trail) None
         & info [ "replay" ] ~docv:"TRAIL"
             ~doc:"Re-execute one counterexample trail (decision indices \
                   separated by ';' or ',') on the selected configuration \
                   with the event trace armed, and dump the trail.")
  in
  let coverage_pairs_flag =
    Arg.(value & flag
         & info [ "coverage" ]
             ~doc:"Accumulate and print every (state x event) coverage pair \
                   hit anywhere in the explored tree, per space (implies -j 1).")
  in
  let baseline_line name (s : Checker.summary) =
    Printf.sprintf
      "{ \"name\": %S, \"states\": %d, \"transitions\": %d, \"states_md5\": %S, \"edges_md5\": %S }"
      name s.Checker.states s.Checker.transitions s.Checker.states_digest
      s.Checker.edges_digest
  in
  (* One entry per line, as [--write-baseline] renders them; [Error] names
     the file and, for a malformed entry, its line. *)
  let parse_baseline file =
    let entry line =
      let line = String.trim line in
      let line =
        if String.ends_with ~suffix:"," line then String.sub line 0 (String.length line - 1)
        else line
      in
      if not (String.starts_with ~prefix:"{ \"name\"" line) then Ok None
      else
        match
          Scanf.sscanf_opt line "{ %S: %S, %S: %d, %S: %d, %S: %S, %S: %S }%!"
            (fun _ name _ states _ transitions _ sd _ ed ->
              (name, (states, transitions, sd, ed)))
        with
        | Some e -> Ok (Some e)
        | None -> Error "malformed entry"
    in
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error e -> Error e
    | text ->
        let rec go n acc = function
          | [] when acc = [] -> Error (file ^ ": no configuration entries")
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
              match entry line with
              | Ok None -> go (n + 1) acc rest
              | Ok (Some e) -> go (n + 1) (e :: acc) rest
              | Error m -> Error (Printf.sprintf "%s:%d: %s" file n m))
        in
        go 1 [] (String.split_on_char '\n' text)
  in
  let action configs max_depth max_states no_por jobs budget baseline write_baseline
      replay coverage =
    let plans =
      let all = Checker.tiny_plans () in
      match configs with
      | [] -> all
      | names ->
          List.map
            (fun n ->
              match List.assoc_opt n all with
              | Some p -> (n, p)
              | None ->
                  Printf.eprintf "unknown check configuration %S\nknown: %s\n" n
                    (String.concat ", " plan_names);
                  exit 1)
            names
    in
    let adjust (name, p) =
      ( name,
        {
          p with
          Checker.max_depth = Option.value ~default:p.Checker.max_depth max_depth;
          max_states = Option.value ~default:p.Checker.max_states max_states;
          por = (not no_por) && p.Checker.por;
        } )
    in
    let plans = List.map adjust plans in
    match replay with
    | Some trail -> (
        let name, plan =
          match plans with
          | [ np ] -> np
          | _ ->
              Printf.eprintf "--replay needs exactly one --config\n";
              exit 1
        in
        let outcome, events =
          try Checker.replay plan trail
          with Invalid_argument m ->
            Printf.printf "replay(%s): %s\n" name m;
            exit 1
        in
        List.iter (fun e -> Format.printf "%a@." Trace.pp_event e) events;
        match outcome with
        | `Violation m ->
            Printf.printf "replay(%s): VIOLATION %s\n" name m;
            exit 1
        | `Terminal -> Printf.printf "replay(%s): terminal, no violation\n" name
        | `Incomplete ->
            Printf.printf "replay(%s): trail exhausted before a terminal\n" name)
    | None ->
        let baseline =
          Option.map
            (fun file ->
              match parse_baseline file with
              | Ok entries -> entries
              | Error m ->
                  Printf.eprintf "baseline: %s\n" m;
                  exit 1)
            baseline
        in
        let t_start = Unix.gettimeofday () in
        let failed = ref false in
        let results = ref [] in
        List.iter
          (fun (name, plan) ->
            let elapsed = Unix.gettimeofday () -. t_start in
            match budget with
            | Some b when elapsed > b ->
                Printf.printf "%-20s SKIPPED (budget %.0fs exhausted)\n" name b
            | _ ->
                let t0 = Unix.gettimeofday () in
                let r, pairs =
                  if coverage then
                    let r, pairs = Checker.covered_pairs plan in
                    (r, Some pairs)
                  else (Checker.explore ~workers:jobs plan, None)
                in
                let dt = Unix.gettimeofday () -. t0 in
                let s = r.Checker.summary and d = r.Checker.diagnostics in
                results := (name, s) :: !results;
                Printf.printf
                  "%-20s states=%d transitions=%d paths=%d decisions=%d \
                   por-collapsed=%d deepest=%d%s  (%.2fs)\n"
                  name s.Checker.states s.Checker.transitions d.Checker.paths
                  d.Checker.decisions d.Checker.por_collapsed d.Checker.deepest
                  (if d.Checker.truncated_depth > 0 || d.Checker.truncated_states then
                     " TRUNCATED"
                   else "")
                  dt;
                if d.Checker.truncated_depth > 0 || d.Checker.truncated_states then
                  failed := true;
                List.iter
                  (fun (v : Checker.violation) ->
                    failed := true;
                    Printf.printf
                      "  VIOLATION: %s\n  counterexample trail: %s\n  replay: xguard \
                       check -c %s --replay '%s'\n"
                      v.Checker.message
                      (String.concat ";" (List.map string_of_int v.Checker.trail))
                      name
                      (String.concat ";" (List.map string_of_int v.Checker.trail)))
                  s.Checker.violations;
                Option.iter
                  (List.iter (fun (space, keys) ->
                       Printf.printf "  %s: %d pairs\n    %s\n" space
                         (List.length keys) (String.concat " " keys)))
                  pairs)
          plans;
        let results = List.rev !results in
        Option.iter
          (fun file ->
            let oc = open_out file in
            output_string oc "{ \"configs\": [\n";
            List.iteri
              (fun i (name, s) ->
                output_string oc (baseline_line name s);
                if i < List.length results - 1 then output_string oc ",";
                output_string oc "\n")
              results;
            output_string oc "] }\n";
            close_out oc;
            Printf.printf "baseline written to %s\n" file)
          write_baseline;
        Option.iter
          (fun base ->
            List.iter
              (fun (name, (s : Checker.summary)) ->
                match List.assoc_opt name base with
                | None -> Printf.printf "baseline: %s not pinned (new entry?)\n" name
                | Some (states, transitions, sd, ed) ->
                    if
                      states <> s.Checker.states
                      || transitions <> s.Checker.transitions
                      || sd <> s.Checker.states_digest
                      || ed <> s.Checker.edges_digest
                    then begin
                      failed := true;
                      Printf.printf
                        "baseline DRIFT on %s: expected states=%d transitions=%d \
                         got states=%d transitions=%d (digests %s)\n"
                        name states transitions s.Checker.states s.Checker.transitions
                        (if sd = s.Checker.states_digest && ed = s.Checker.edges_digest
                         then "match"
                         else "differ")
                    end)
              results)
          baseline;
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exhaustively model-check the guard invariants on tiny configurations")
    Term.(const action $ configs_arg $ max_depth_arg $ max_states_arg $ no_por_flag
          $ jobs_arg $ budget_arg $ baseline_arg $ write_baseline_arg $ replay_arg
          $ coverage_pairs_flag)

let () =
  let doc = "Crossing Guard: mediating host-accelerator coherence interactions (reproduction)" in
  let info = Cmd.info "xguard" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; stress_cmd; fuzz_cmd; campaign_cmd; report_cmd; list_cmd; check_cmd ]))
