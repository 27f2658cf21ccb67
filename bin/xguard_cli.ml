(* Command-line driver for the Crossing Guard reproduction.

   Subcommands:
     run      — run a workload on one configuration and print its statistics
     stress   — random coherence stress test (paper §4.1)
     fuzz     — bombard the guard with a pathological accelerator (paper §4)
     campaign — sharded stress/fuzz sweep over configurations × seeds
     report   — regenerate a reproduced table/figure (same as bench/main.exe)
     list     — enumerate configurations, workloads and experiments
     check    — exhaustively model-check the guard invariants on tiny configs

   run/stress/fuzz/campaign accept --trace (give each run its own protocol
   event ring buffer and dump the per-address trail plus replay seed on
   failure), --trace-out FILE (write every trail to a file) and, for
   stress/fuzz/campaign, --coverage (print the per-controller state x event
   transition-coverage matrices).

   stress, fuzz and campaign run every seed through Harness.Campaign: one job
   runner per kind, one observer-arming wrapper, one job-order fold.  -j N
   fans the independent runs out over N domains (Xguard_parallel.Pool);
   results are merged in job order, so the output is byte-identical for any
   -j; only wall-clock changes.  This file only parses flags and renders.

   Flags shared between subcommands come from the term groups below
   (target, observers — the event trace among them — and link).  Every
   input check, cross-flag ones included, runs at parse time: bad input
   exits 124 with a reason before anything runs.
*)

open Cmdliner

module Config = Xguard_harness.Config
module Topology = Xguard_harness.Topology
module Tester = Xguard_harness.Random_tester
module Fuzz = Xguard_harness.Fuzz_tester
module Perf = Xguard_harness.Perf_runner
module Experiments = Xguard_harness.Experiments
module W = Xguard_workload.Workload
module Xg = Xguard_xg
module Trace = Xguard_trace.Trace
module Coverage = Xguard_trace.Coverage
module Campaign = Xguard_harness.Campaign
module Network = Xguard_network.Network
module Obs = Xguard_obs.Obs
module Spans = Xguard_obs.Spans
module Perfetto = Xguard_obs.Perfetto
module Metrics = Xguard_obs.Metrics
module Slo = Xguard_obs.Slo
module Watchdog = Xguard_obs.Watchdog

(* ---- validated converters ----

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

(* Worker domains: OCaml 5.1 caps a process at 128 (Max_domains), and
   Domain.spawn fails beyond it. *)
let domains = int_in ~min:1 ~max:128

let float_where ~ok ~want =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (Printf.sprintf "invalid value %S, expected a number" s)
    | Some p when not (ok p) -> Error (Printf.sprintf "%s out of range (want %s)" s want)
    | Some p -> Ok p
  in
  Arg.conv' (parse, Arg.conv_printer Arg.float)

let prob = float_where ~ok:(fun p -> p >= 0.0 && p <= 1.0) ~want:"a probability in [0, 1]"
let positive_float = float_where ~ok:(fun x -> x > 0.0) ~want:"> 0"

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

(* One of [items], named by [name]; unknown names are refused with the
   known ones. *)
let one_of ~what ~name items =
  let parse s =
    match List.find_opt (fun x -> name x = s) items with
    | Some x -> Ok x
    | None ->
        Error
          (Printf.sprintf "unknown %s %S (known: %s)" what s
             (String.concat ", " (List.map name items)))
  in
  Arg.conv' (parse, fun fmt x -> Format.pp_print_string fmt (name x))

let configs = Config.all_configurations ()
let config_names = List.map Config.name configs
let config = one_of ~what:"configuration" ~name:Config.name configs
let workload = one_of ~what:"workload" ~name:(fun w -> w.W.name) (W.all ())
let topology = Arg.conv' (Topology.of_string, Fmt.of_to_string Topology.to_string)

let fault_script =
  Arg.conv' (Network.Fault.script_of_string, Fmt.of_to_string Network.Fault.script_to_string)

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

(* Cross-flag checks: a [Some reason] refuses the command line, exiting 124
   like any bad flag, before [f] runs. *)
let refuse_if reason f = match reason with Some r -> `Error (false, r) | None -> `Ok (f ())

(* ---- target: -c, --topology and -s ---- *)

let topology_arg =
  Arg.(value & opt (some topology) None
       & info [ "topology" ] ~docv:"SPEC"
           ~doc:"Build a multi-accelerator, multi-guard system instead of a \
                 named configuration: \
                 $(b,HOST[:shards=N];ID=ATTR,...;ID=ATTR,...) — e.g. \
                 $(b,hammer:shards=2;gpu0=trans,cached;nic0=full,uncached,lat=12). \
                 See docs/TOPOLOGY.md.  Overrides $(b,--config).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* The configurations [-c] selects, or the one [--topology] describes (it
   takes precedence); both deliver Config.t values, so everything downstream
   is topology-agnostic.  Each carries the [-s] seed. *)
let target config =
  let pick cfgs topology seed =
    List.map
      (fun c -> { c with Config.seed })
      (match topology with Some t -> [ Config.of_topology t ] | None -> cfgs)
  in
  Term.(const pick $ config $ topology_arg $ seed_arg)

(* run, stress and fuzz build one system. *)
let one_config =
  let doc = "System configuration, one of: " ^ String.concat ", " config_names ^ "." in
  let c =
    let default = List.find (fun c -> Config.name c = "hammer/xg-trans-1lvl") configs in
    Arg.(value & opt config default & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)
  in
  Term.(const List.hd $ target (const (fun c -> [ c ]) $ c))

(* Replay commands name a configuration the way the command line took it. *)
let target_flag (cfg : Config.t) =
  match cfg.Config.topology with
  | Some t -> "--topology " ^ Filename.quote (Topology.to_string t)
  | None -> "-c " ^ Config.name cfg

let jobs_arg =
  Arg.(value & opt domains 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Fan independent runs out over $(docv) worker domains (1 = serial). \
                 Results are merged in job order, so output is byte-identical for \
                 any $(docv).")

let tail_events = 60

let block_part = function Some a -> Printf.sprintf " for block 0x%x" a | None -> ""

let coverage_flag =
  Arg.(value & flag
       & info [ "coverage" ]
           ~doc:"Print per-controller (state x event) transition-coverage matrices.")

(* ---- observers: the event trace, spans, the span timeline, streaming
   metrics, SLOs and the watchdog ---- *)

type observers = {
  arm : Campaign.observers;
  trace_out : string option;
  spans_out : string option;
  metrics_out : string option;
  metrics_prom : string option;
  slo : Slo.objective list option;
}

(* [timeline] offers --spans-out (campaign has no timeline export). *)
let observers_term ~timeline =
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Arm the protocol event ring buffer; on failure the event trail \
                   (and the seed that replays it) is dumped.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write dumped event trails to $(docv) instead of stdout (implies \
                   $(b,--trace)).")
  in
  let spans =
    Arg.(value & flag
         & info [ "spans" ]
             ~doc:"Arm the transaction span layer: per-segment latency-attribution \
                   tables (p50/p95/p99/max per transaction type) are appended to \
                   the report.")
  in
  let spans_out =
    if not timeline then Term.const None
    else
      Arg.(value & opt (some string) None
           & info [ "spans-out" ] ~docv:"FILE"
               ~doc:"Write the span timeline and sampler series as Chrome/Perfetto \
                     trace-event JSON to $(docv) (implies $(b,--spans)).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Stream periodic telemetry samples (counter deltas, gauges, \
                   span quantiles, per-guard latency histograms, availability) \
                   as xguard-metrics-v1 JSONL to $(docv).  Byte-identical for \
                   any $(b,-j).  Arms the span layer.")
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
  let make trace trace_out spans spans_out metrics_out metrics_prom slo watchdog =
    let metrics =
      metrics_out <> None || metrics_prom <> None || slo <> None || watchdog <> None
    in
    {
      arm =
        { Campaign.trace = trace || trace_out <> None; spans = spans || spans_out <> None;
          timeline = spans_out <> None; metrics; watchdog };
      trace_out;
      spans_out;
      metrics_out;
      metrics_prom;
      slo;
    }
  in
  Term.(const make $ trace $ trace_out $ spans $ spans_out $ out $ prom $ slo $ wd)

(* Print dumped trails, or write every one of them to --trace-out in one
   go. *)
let emit_trails obs trails =
  match (List.filter (fun (_, text) -> text <> "") trails, obs.trace_out) with
  | [], _ -> ()
  | trails, None -> List.iter (fun (header, text) -> Printf.printf "%s\n%s\n" header text) trails
  | trails, Some file ->
      Out_channel.with_open_text file (fun oc ->
          List.iter (fun (header, text) -> Printf.fprintf oc "%s\n%s\n" header text) trails);
      Printf.printf "event trail written to %s\n" file

let print_span_summary sum =
  match Spans.Summary.attribution_table sum with
  | None -> ()
  | Some t ->
      print_string (Xguard_stats.Table.to_string t);
      print_newline ();
      let r = Spans.Summary.replaced sum and d = Spans.Summary.dropped sum in
      if r > 0 || d > 0 then
        Printf.printf "spans: %d crossings replaced, %d timeline/sample entries dropped\n" r d

(* The stdout metrics block, delimited so a reader can strip it and compare
   against a metrics-off run byte-for-byte. *)
let emit_metrics obs ~span_cells msum =
  if obs.arm.Campaign.metrics then begin
    let objectives = Option.value ~default:[] obs.slo in
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
    if obs.arm.Campaign.watchdog <> None then begin
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
    let write file what f =
      let oc = open_out file in
      f oc;
      close_out oc;
      Printf.printf "%s written to %s\n" what file
    in
    Option.iter
      (fun file ->
        write file "metrics stream" (fun oc ->
            Metrics.write_jsonl oc ~period:Xguard_harness.System.sampler_period ~span_cells
              ~verdicts msum))
      obs.metrics_out;
    Option.iter
      (fun file ->
        write file "prometheus dump" (fun oc -> Metrics.write_prom oc ~span_cells msum))
      obs.metrics_prom;
    print_string "== end metrics ==\n"
  end

(* What every run prints after its own results: span tables, the span
   timeline and the metrics block. *)
let emit_observers obs ~span_total ~timelines msum =
  if obs.arm.Campaign.spans then print_span_summary span_total;
  Option.iter
    (fun file ->
      Perfetto.write_file file timelines;
      Printf.printf "span timeline written to %s\n" file)
    obs.spans_out;
  emit_metrics obs ~span_cells:(Spans.Summary.cells span_total) msum

let emit_sweep_observers obs (r : Campaign.t) =
  emit_observers obs ~span_total:r.Campaign.span_total
    ~timelines:
      (List.filter_map
         (fun (o : Campaign.outcome) ->
           Option.map (fun rc -> (o.Campaign.label, rc)) o.Campaign.timeline)
         (Array.to_list r.Campaign.outcomes))
    r.Campaign.metrics

(* ---- link: lossy-link fault injection, recovery policy and hang budgets ---- *)

type link = {
  apply : Config.t -> Config.t;
  flags : string;  (** the same flags as command-line text, for replay commands *)
}

(* The shortest decimal that reads back as [p]. *)
let float_text p =
  let s = Printf.sprintf "%.15g" p in
  if float_of_string s = p then s else Printf.sprintf "%.17g" p

let link_term =
  let prob_arg name doc = Arg.(value & opt prob 0.0 & info [ name ] ~docv:"P" ~doc) in
  let budget_arg name doc =
    Arg.(value & opt (some (cycles ~min:1)) None & info [ name ] ~docv:"CYCLES" ~doc)
  in
  let drop =
    prob_arg "fault-drop"
      "Drop each XG-link message with probability $(docv); any non-zero fault \
       probability also enables the link reliability layer."
  in
  let dup = prob_arg "fault-dup" "Duplicate each XG-link message with probability $(docv)." in
  let corrupt =
    prob_arg "fault-corrupt" "Corrupt each XG-link message's payload with probability $(docv)."
  in
  let delay =
    prob_arg "fault-delay"
      "Delay each XG-link message by a random 1..32 extra cycles with probability $(docv)."
  in
  let scripts =
    Arg.(value & opt_all fault_script []
         & info [ "fault-script" ] ~docv:"SPEC"
             ~doc:"Deterministic fault $(b,KIND:N[:NEEDLE]) — hit the Nth link message \
                   whose trace text contains NEEDLE with KIND \
                   (drop|dup|corrupt|kill|delay@CYCLES).  Repeatable; implies the \
                   reliability layer.")
  in
  let reliable =
    Arg.(value & flag
         & info [ "reliable-link" ]
             ~doc:"Run the link's seq+checksum reliability layer even with no \
                   injected faults (for overhead measurements).")
  in
  let recover =
    Arg.(value & flag
         & info [ "recover" ]
             ~doc:"After a quarantine, reset the link and re-admit the accelerator \
                   on probation instead of killing it for good (default recovery \
                   policy; see DESIGN.md section 12).")
  in
  let lives =
    Arg.(value & opt (some positive_int) None
         & info [ "recover-lives" ] ~docv:"K"
             ~doc:"Permanently kill the link after $(docv) quarantines.  Implies \
                   $(b,--recover).")
  in
  let breq =
    budget_arg "budget-req"
      "Hang budget for the request->decision phase: an accelerator request the guard \
       has not decided within $(docv) cycles counts as a link fault."
  in
  let binv =
    budget_arg "budget-inv"
      "Hang budget for the invalidate->ack phase.  Trips strictly before the coarse \
       G2c timeout when set below it."
  in
  let bfetch = budget_arg "budget-fetch" "Hang budget for the host fetch->data phase." in
  let make drop dup corrupt delay scripts reliable recover lives breq binv bfetch =
    let fault = { Network.Fault.drop; duplicate = dup; corrupt; delay; max_delay = 32 } in
    (* Every knob defaults to the historical behaviour: no flag, no config
       change, byte-identical runs. *)
    let apply cfg =
      let cfg =
        if reliable || scripts <> [] || Network.Fault.active fault then
          { cfg with Config.link_faults = Some fault; link_fault_scripts = scripts }
        else cfg
      in
      let cfg =
        if recover || lives <> None then
          { cfg with
            Config.recovery = Some (Xg.Xg_core.make_recovery ?permakill_after:lives ()) }
        else cfg
      in
      if breq <> None || binv <> None || bfetch <> None then
        let budgets = { Xg.Xg_core.req_decide = breq; inv_ack = binv; fetch_data = bfetch } in
        { cfg with Config.budgets }
      else cfg
    in
    let p name v = if v = 0.0 then [] else [ Printf.sprintf "--%s %s" name (float_text v) ] in
    let n name = Option.fold ~none:[] ~some:(fun v -> [ Printf.sprintf "--%s %d" name v ]) in
    let b name v = if v then [ "--" ^ name ] else [] in
    let flags =
      List.concat
        [ p "fault-drop" drop; p "fault-dup" dup; p "fault-corrupt" corrupt;
          p "fault-delay" delay;
          List.map
            (fun s -> "--fault-script " ^ Filename.quote (Network.Fault.script_to_string s))
            scripts;
          b "reliable-link" reliable; b "recover" recover; n "recover-lives" lives;
          n "budget-req" breq; n "budget-inv" binv; n "budget-fetch" bfetch ]
    in
    { apply; flags = String.concat "" (List.map (( ^ ) " ") flags) }
  in
  Term.(const make $ drop $ dup $ corrupt $ delay $ scripts $ reliable $ recover $ lives
        $ breq $ binv $ bfetch)

(* ---- run ---- *)

let run_cmd =
  let workload_arg =
    let doc = "Workload: streaming, blocked, graph, write-coalesce, producer-consumer." in
    Arg.(value & opt workload (List.find (fun w -> w.W.name = "blocked") (W.all ()))
         & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc)
  in
  let action cfg w obs =
    let failed e trail =
      Option.iter
        (fun text ->
          emit_trails obs
            [ ( Printf.sprintf "-- event trail, last %d events (replay with --seed %d) --"
                  tail_events cfg.Config.seed,
                text ) ])
        trail;
      Printf.eprintf "run failed: %s\n" (Printexc.to_string e);
      exit 1
    in
    match
      Campaign.observe obs.arm ~label:"run" (fun () ->
          match Perf.run cfg w with
          | r -> Ok r
          | exception e -> Error (e, Option.map (Trace.dump ~last:tail_events) (Obs.trace ())))
    with
    | Error (e, trail), _, _ -> failed e trail
    | Ok r, rec_, msum -> (
        try
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
              emit_observers obs ~span_total:(Spans.summary rc) ~timelines:[ (w.W.name, rc) ]
                msum)
            rec_
        with e -> failed e None)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload on one configuration")
    Term.(const action $ one_config $ workload_arg $ observers_term ~timeline:true)

(* ---- stress ---- *)

(* One seed's report line; the link and recovery parts print only when the
   link can fault or a policy or budget is configured, so default runs stay
   byte-identical to the historical report. *)
let stress_line (cfg : Config.t) seed (s : Campaign.stress_run) =
  let o = s.Campaign.tester in
  let link_part =
    if s.Campaign.link_faults = [] then ""
    else
      let injected, retx = Campaign.link_totals s.Campaign.link_faults in
      Printf.sprintf " link[inj=%d retx=%d q=%b]" injected retx s.Campaign.quarantined
  in
  let rec_parts =
    (if cfg.Config.recovery <> None then
       [ Printf.sprintf "rejoins=%d kill=%b" s.Campaign.rejoins s.Campaign.permakilled ]
     else [])
    @
    if cfg.Config.budgets <> Xg.Xg_core.no_budgets then
      [ Printf.sprintf "trips=%d" s.Campaign.budget_trips ]
    else []
  in
  Printf.sprintf "seed %-6d ops=%-6d data_errors=%-3d deadlock=%-5b violations=%-3d %s%s%s"
    seed o.Tester.ops_completed o.Tester.data_errors o.Tester.deadlocked s.Campaign.violations
    (if Campaign.failed (Campaign.Stressed s) then "FAIL" else "ok")
    link_part
    (if rec_parts = [] then "" else Printf.sprintf " rec[%s]" (String.concat " " rec_parts))

let stress_cmd =
  let ops_arg =
    Arg.(value & opt positive_int 500 & info [ "ops" ] ~docv:"N" ~doc:"Operations per core.")
  in
  let seeds_arg =
    Arg.(value & opt positive_int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let action cfg link ops seeds jobs coverage obs =
    let cfg = link.apply cfg in
    let r =
      Campaign.run ~workers:jobs ~collect_coverage:coverage ~stress_ops:ops
        ~seeding:(Campaign.Consecutive cfg.Config.seed) ~observers:obs.arm
        Campaign.Stress ~configs:[ cfg ] ~seeds ()
    in
    let trails =
      List.concat_map
        (fun (o : Campaign.outcome) ->
          let seed = o.Campaign.seed in
          match o.Campaign.run with
          | Campaign.Stressed s ->
              Printf.printf "%s\n" (stress_line cfg seed s);
              List.map
                (fun (addr, text) ->
                  ( Printf.sprintf "-- seed %d event trail%s (replay with --seed %d --seeds 1) --"
                      seed (block_part addr) seed,
                    text ))
                (Option.to_list (Campaign.trail o.Campaign.run))
          | Campaign.Crashed e ->
              Printf.printf "seed %-6d CRASH %s FAIL\n" seed e;
              []
          | Campaign.Fuzzed _ -> [])
        (Array.to_list r.Campaign.outcomes)
    in
    emit_trails obs trails;
    List.iter
      (fun c ->
        print_string (Coverage.to_string c);
        print_newline ())
      r.Campaign.coverage;
    emit_sweep_observers obs r;
    Printf.printf "%s\n" (if Campaign.passed r then "PASS" else "FAIL");
    if not (Campaign.passed r) then exit 1
  in
  Cmd.v
    (Cmd.info "stress" ~doc:"Random coherence stress test (paper section 4.1)")
    Term.(const action $ one_config $ link_term $ ops_arg $ seeds_arg $ jobs_arg
          $ coverage_flag $ observers_term ~timeline:true)

(* ---- fuzz ---- *)

(* Shared by fuzz and campaign, so a campaign fuzz job's replay command can
   name its CPU ops. *)
let cpu_ops_arg =
  Arg.(value & opt positive_int 300
       & info [ "cpu-ops" ] ~docv:"N" ~doc:"Checked CPU operations per core per fuzz run.")

let fuzz_cmd =
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
  let chaos_term =
    let mute =
      Arg.(value & flag & info [ "mute" ] ~doc:"The accelerator never answers invalidations.")
    in
    let period =
      Arg.(value & opt (some (cycles ~min:1)) None
           & info [ "chaos-period" ] ~docv:"CYCLES"
               ~doc:"Cycles between chaos-accelerator injections (smaller = denser \
                     bombardment).")
    in
    let respond =
      Arg.(value & opt (some prob) None
           & info [ "chaos-respond-prob" ] ~docv:"P"
               ~doc:"Probability the chaos accelerator answers an Invalidate at all \
                     (with a random, possibly wrong, response).  0.0 never answers — \
                     the G2c-timeout path.")
    in
    let requests_only =
      Arg.(value & flag
           & info [ "chaos-requests-only" ]
               ~doc:"Inject only syntactically valid requests, no spontaneous \
                     responses.")
    in
    let tarpit =
      Arg.(value & opt (some (cycles ~min:0)) None
           & info [ "chaos-tarpit" ] ~docv:"CYCLES"
               ~doc:"Slow-but-honest mode: answer every Invalidate with a correct \
                     Inv_ack exactly $(docv) cycles late.  With $(b,--budget-inv) \
                     below $(docv), every invalidation trips the budget; without \
                     budgets only the coarse G2c timeout can notice.  Overrides \
                     $(b,--chaos-respond-prob).")
    in
    (* --mute is shorthand for the never-answer chaos shape; explicit chaos
       flags compose with (and refine) it. *)
    let make mute period respond requests_only tarpit =
      {
        Campaign.period;
        respond = (if mute then Some 0.0 else respond);
        requests_only = (if mute || requests_only then Some true else None);
        tarpit;
      }
    in
    Term.(const make $ mute $ period $ respond $ requests_only $ tarpit)
  in
  let action cfg link timeout chaos seeds jobs cpu_ops coverage obs =
    refuse_if
      (if Config.uses_xg cfg then None
       else Some "fuzzing needs a Crossing Guard configuration")
    @@ fun () ->
    let cfg = link.apply cfg in
    let cfg = match timeout with None -> cfg | Some t -> { cfg with Config.xg_timeout = t } in
    let r =
      Campaign.run ~workers:jobs ~fuzz_cpu_ops:cpu_ops
        ~seeding:(Campaign.Consecutive cfg.Config.seed) ~observers:obs.arm ~chaos Campaign.Fuzz
        ~configs:[ cfg ] ~seeds ()
    in
    let merged =
      Array.fold_left
        (fun merged (o : Campaign.outcome) ->
          match o.Campaign.run with
          | Campaign.Fuzzed f ->
              if seeds > 1 then
                Printf.printf
                  "seed %-6d chaos=%-6d ops=%d/%d crashed=%-3s deadlock=%-5b violations=%-4d %s\n"
                  f.Fuzz.seed f.Fuzz.chaos_messages f.Fuzz.cpu_ops_completed
                  f.Fuzz.cpu_ops_expected
                  (match f.Fuzz.crashed with Some _ -> "yes" | None -> "no")
                  f.Fuzz.deadlocked f.Fuzz.violations
                  (if Campaign.failed o.Campaign.run then "FAIL" else "ok");
              Some (match merged with None -> f | Some m -> Fuzz.merge m f)
          | Campaign.Crashed e ->
              Printf.printf "seed %-6d CRASH %s FAIL\n" o.Campaign.seed e;
              merged
          | Campaign.Stressed _ -> merged)
        None r.Campaign.outcomes
    in
    match merged with
    | None ->
        Printf.printf "no run completed\n";
        exit 1
    | Some o ->
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
          List.iter (fun (k, n) -> Printf.printf "  link.%-32s %d\n" k n) o.Fuzz.link_faults
        end;
        (* Gated on the flags, like the link block above, so default output
           stays byte-identical. *)
        if cfg.Config.recovery <> None then begin
          Printf.printf "link rejoins       %d\n" o.Fuzz.rejoins;
          Printf.printf "permakilled        %b\n" o.Fuzz.permakilled
        end;
        if cfg.Config.budgets <> Xg.Xg_core.no_budgets then
          Printf.printf "budget trips       %d\n" o.Fuzz.budget_trips;
        if coverage then
          List.iter
            (fun (_, space, groups) ->
              print_string (Coverage.to_string (Coverage.analyze space groups));
              print_newline ())
            o.Fuzz.coverage_sets;
        emit_sweep_observers obs r;
        (* Every seed's trail, in seed order, in one write. *)
        emit_trails obs
          (List.filter_map
             (fun (o : Campaign.outcome) ->
               Option.map
                 (fun (addr, text) ->
                   ( Printf.sprintf "-- failure event trail%s (replay with --seed %d) --"
                       (block_part addr) o.Campaign.seed,
                     text ))
                 (Campaign.trail o.Campaign.run))
             (Array.to_list r.Campaign.outcomes));
        if Campaign.failed (Campaign.Fuzzed o) || r.Campaign.crashes > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Bombard the guard with a pathological accelerator")
    Term.(ret (const action $ one_config $ link_term $ timeout_arg $ chaos_term $ seeds_arg
               $ jobs_arg $ cpu_ops_arg $ coverage_flag $ observers_term ~timeline:true))

(* ---- campaign ---- *)

let campaign_cmd =
  let target_arg =
    let doc =
      "Configuration to sweep, or $(b,all) for the full 12-configuration matrix. \
       Known: " ^ String.concat ", " config_names ^ "."
    in
    let selection =
      one_of ~what:"configuration"
        ~name:(function [ c ] -> Config.name c | _ -> "all")
        (configs :: List.map (fun c -> [ c ]) configs)
    in
    target Arg.(value & opt selection configs & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)
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
    Arg.(value & opt positive_int 500
         & info [ "ops" ] ~docv:"N" ~doc:"Stress operations per core per run.")
  in
  (* Every failure trail names the one-seed command that replays its job. *)
  let header ~link ~ops ~cpu_ops (o : Campaign.outcome) addr =
    let target = target_flag o.Campaign.config and seed = o.Campaign.seed in
    let kind, replay =
      match o.Campaign.run with
      | Campaign.Stressed _ ->
          ( "stress",
            Printf.sprintf "replay with xguard stress %s --seed %d --seeds 1 --ops %d%s" target
              seed ops link.flags )
      | _ ->
          ( "fuzz",
            Printf.sprintf "replay with xguard fuzz %s --seed %d --cpu-ops %d%s" target seed
              cpu_ops link.flags )
    in
    Printf.sprintf "-- %s %s seed %d event trail%s (%s) --" (Config.name o.Campaign.config) kind
      seed (block_part addr) replay
  in
  let action configs link seeds jobs kind ops cpu_ops coverage obs =
    (* -s rides in every selected configuration; it roots the derivation. *)
    let seed = (List.hd configs).Config.seed in
    let r =
      Campaign.run ~workers:jobs ~collect_coverage:coverage ~stress_ops:ops
        ~fuzz_cpu_ops:cpu_ops ~seeding:(Campaign.Derived seed) ~observers:obs.arm
        kind ~configs:(List.map link.apply configs) ~seeds ()
    in
    print_string (Campaign.render r);
    emit_metrics obs ~span_cells:(Spans.Summary.cells r.Campaign.span_total) r.Campaign.metrics;
    (match
       List.filter_map
         (fun (o : Campaign.outcome) ->
           Option.map
             (fun (addr, text) -> header ~link ~ops ~cpu_ops o addr ^ "\n" ^ text)
             (Campaign.trail o.Campaign.run))
         (Array.to_list r.Campaign.outcomes)
     with
    | [] -> ()
    | trails -> emit_trails obs [ ("== campaign failure trails ==", String.concat "\n" trails) ]);
    if not (Campaign.passed r) then exit 1
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
               reported as a failed run for its configuration.  Every failure \
               trail names the one-seed $(b,stress) or $(b,fuzz) command that \
               replays its job.";
         ])
    Term.(const action $ target_arg $ link_term $ seeds_arg $ jobs_arg $ kind_arg $ ops_arg
          $ cpu_ops_arg $ coverage_flag $ observers_term ~timeline:false)

(* ---- report ---- *)

(* The health-dashboard half of `xguard report`: merge one or more
   xguard-metrics-v1 streams (campaign shards, separate runs) into one
   terminal — and optionally HTML — health report. *)

module Table = Xguard_stats.Table
module Histogram = Xguard_stats.Histogram

let read_lines file =
  try In_channel.with_open_text file In_channel.input_lines
  with Sys_error e ->
    Printf.eprintf "cannot read metrics stream: %s\n" e;
    exit 1

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
      (try write_html_report file ~healthy ~status tables
       with Sys_error e ->
         Printf.eprintf "report: cannot write the html report: %s\n" e;
         exit 1);
      Printf.printf "html report written to %s\n" file)
    html

let report_cmd =
  let id_arg =
    Arg.(value & pos 0 (one_of ~what:"experiment" ~name:Fun.id ("all" :: Experiments.ids)) "all"
         & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id (t1 f1 f2 e1-e11 a1 a2) or 'all'.")
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
        Option.iter
          (fun (f : ?quick:bool -> unit -> Experiments.report) -> print (f ~quick ()))
          (Experiments.by_id id)
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
  let plans = Checker.tiny_plans () in
  let configs_arg =
    Arg.(value & opt_all (one_of ~what:"check configuration" ~name:fst plans) []
         & info [ "c"; "config" ] ~docv:"NAME"
             ~doc:("Tiny configuration(s) to check, repeatable; default all. One of: "
                   ^ String.concat ", " (List.map fst plans) ^ "."))
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
    Arg.(value & opt (some positive_float) None
         & info [ "budget" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget: configurations not yet started when it \
                   expires are skipped (exploration in progress is finished).")
  in
  let baseline_arg =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Compare each summary against $(docv) and fail on any drift \
                   in state/transition counts or set digests, or on a pinned \
                   configuration that $(b,--budget) skipped.")
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
                   hit anywhere in the explored tree, per space.")
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
  let action configs max_depth max_states no_por budget baseline write_baseline replay
      coverage =
    let selected = if configs = [] then plans else configs in
    refuse_if
      (if replay <> None && List.length selected <> 1 then
         Some "--replay needs exactly one --config"
       else None)
    @@ fun () ->
    let adjust (name, p) =
      ( name,
        {
          p with
          Checker.max_depth = Option.value ~default:p.Checker.max_depth max_depth;
          max_states = Option.value ~default:p.Checker.max_states max_states;
          por = (not no_por) && p.Checker.por;
        } )
    in
    let plans = List.map adjust selected in
    match (replay, plans) with
    | Some trail, [ (name, plan) ] -> (
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
    | _ ->
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
        (* Opened before the sweep, so an unwritable path fails at once. *)
        let cannot_write e =
          Printf.eprintf "check: cannot write the baseline: %s\n" e;
          exit 1
        in
        let write_baseline =
          Option.map
            (fun file -> (file, try open_out file with Sys_error e -> cannot_write e))
            write_baseline
        in
        let t_start = Unix.gettimeofday () in
        let failed = ref false in
        let results = ref [] and skipped = ref [] in
        List.iter
          (fun (name, plan) ->
            let elapsed = Unix.gettimeofday () -. t_start in
            match budget with
            | Some b when elapsed > b ->
                skipped := name :: !skipped;
                Printf.printf "%-20s SKIPPED (budget %.0fs exhausted)\n" name b
            | _ ->
                let t0 = Unix.gettimeofday () in
                let r, pairs =
                  if coverage then
                    let r, pairs = Checker.covered_pairs plan in
                    (r, Some pairs)
                  else (Checker.explore plan, None)
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
          (fun (file, oc) ->
            (try
               output_string oc "{ \"configs\": [\n";
               List.iteri
                 (fun i (name, s) ->
                   output_string oc (baseline_line name s);
                   if i < List.length results - 1 then output_string oc ",";
                   output_string oc "\n")
                 results;
               output_string oc "] }\n";
               close_out oc
             with Sys_error e -> cannot_write e);
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
              results;
            (* A pinned plan the budget skipped was not checked: the gate must
               not pass on it. *)
            List.iter
              (fun name ->
                if List.mem_assoc name base then begin
                  failed := true;
                  Printf.printf "baseline: %s is pinned but was skipped by --budget\n" name
                end)
              (List.rev !skipped))
          baseline;
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exhaustively model-check the guard invariants on tiny configurations")
    Term.(ret (const action $ configs_arg $ max_depth_arg $ max_states_arg $ no_por_flag
               $ budget_arg $ baseline_arg $ write_baseline_arg $ replay_arg
               $ coverage_pairs_flag))

let () =
  let doc = "Crossing Guard: mediating host-accelerator coherence interactions (reproduction)" in
  let info = Cmd.info "xguard" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; stress_cmd; fuzz_cmd; campaign_cmd; report_cmd; list_cmd; check_cmd ]))
