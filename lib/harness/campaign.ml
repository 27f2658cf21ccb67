module Rng = Xguard_sim.Rng
module Table = Xguard_stats.Table
module Coverage = Xguard_trace.Coverage
module Trace = Xguard_trace.Trace
module Pool = Xguard_parallel.Pool
module Xg = Xguard_xg
module Obs = Xguard_obs.Obs
module Spans = Xguard_obs.Spans
module Metrics = Xguard_obs.Metrics
module Watchdog = Xguard_obs.Watchdog

type kind = Stress | Fuzz | Both

(* ---- observers ---- *)

type observers = {
  trace : bool;
  spans : bool;
  timeline : bool;
  metrics : bool;
  watchdog : Watchdog.config option;
}

let no_observers =
  { trace = false; spans = false; timeline = false; metrics = false; watchdog = None }

(* One observer context per call, holding a fresh recorder for each observer
   asked for.  Metrics always ride an armed span recorder: per-tick
   quantiles read it, even when the span tables themselves were not
   requested. *)
let observe obs ~label f =
  let sr =
    if obs.spans || obs.timeline || obs.metrics then
      Some (Spans.create ~timeline:obs.timeline ())
    else None
  in
  let mr = if obs.metrics then Some (Metrics.create ?watchdog:obs.watchdog ()) else None in
  let trace = if obs.trace then Some (Trace.create ~capacity:8192 ()) else None in
  let ctx = { Obs.trace; spans = sr; metrics = mr } in
  let res = if Obs.armed ctx then Obs.with_ctx ctx f else f () in
  (res, sr, match mr with None -> Metrics.Summary.empty | Some m -> Metrics.summary ~label m)

(* ---- jobs ---- *)

type stress_run = {
  tester : Random_tester.outcome;
  violations : int;
  link_faults : (string * int) list;
  quarantined : bool;
  budget_trips : int;
  rejoins : int;
  permakilled : bool;
  coverage : (string * Coverage.space * Xguard_stats.Counter.Group.t list) list;
  trail : string option;
}

type run = Stressed of stress_run | Fuzzed of Fuzz_tester.outcome | Crashed of string

type outcome = {
  config : Config.t;
  seed : int;
  label : string;
  run : run;
  spans : Spans.Summary.t;
  timeline : Spans.recorder option;
  metrics : Metrics.Summary.t;
}

type chaos = {
  period : int option;
  respond : float option;
  requests_only : bool option;
  tarpit : int option;
}

let default_chaos = { period = None; respond = None; requests_only = None; tarpit = None }

type seeding = Derived of int | Consecutive of int

let failed = function
  | Stressed r ->
      r.tester.Random_tester.data_errors > 0 || r.tester.Random_tester.deadlocked
      || r.violations > 0
  (* Guard violations are the fuzzer's *purpose*, and under the default
     shared-rw pool the accelerator may legitimately write the checked
     blocks, so data checks are advisory (paper §2.3.2); only a crash or
     deadlock fails a fuzz run. *)
  | Fuzzed o -> o.Fuzz_tester.crashed <> None || o.Fuzz_tester.deadlocked
  | Crashed _ -> true

let trail_tail = 60

let trail = function
  | Stressed r -> Option.map (fun t -> (r.tester.Random_tester.first_error_addr, t)) r.trail
  | Fuzzed o -> (
      let tail =
        match o.Fuzz_tester.crashed with
        | Some c -> c.Fuzz_tester.trace_tail
        | None -> o.Fuzz_tester.trace_tail
      in
      match tail with
      | [] -> None
      | _ ->
          (* Forensics readers must know when the ring wrapped and the trail
             is incomplete. *)
          let d = o.Fuzz_tester.trace_dropped in
          let dropped_line =
            if d = 0 then []
            else
              [ Printf.sprintf "(%d event%s dropped — ring wrapped)" d
                  (if d = 1 then "" else "s") ]
          in
          Some
            ( o.Fuzz_tester.first_error_addr,
              String.concat "\n" (dropped_line @ List.map Trace.format_event tail) ))
  | Crashed _ -> None

(* A topology guard's counters carry its id ("a0.injected.drop"); ids hold no
   dot, so every guard's counters sum under their unprefixed names. *)
let link_totals counts =
  let base k =
    match String.index_opt k '.' with
    | Some i when not (String.starts_with ~prefix:"injected." k) ->
        String.sub k (i + 1) (String.length k - i - 1)
    | _ -> k
  in
  let sum keep = List.fold_left (fun n (k, v) -> if keep (base k) then n + v else n) 0 counts in
  (sum (String.starts_with ~prefix:"injected."), sum (String.equal "retransmit_frames"))

(* Availability is noted where the system is still visible — inside the job,
   while this job's recorder is armed. *)
let note_guard_avail (sys : System.t) ~now =
  match Obs.metrics () with
  | Some mr ->
      Array.iter
        (fun (g : System.guard) ->
          let guard = if g.System.g_id = "" then "xg" else "xg." ^ g.System.g_id in
          Metrics.note_avail mr ~guard ~down:(Xg.Xg_core.down_cycles g.System.g_core ~now) ~now)
        sys.System.guards
  | None -> ()

let stress_job ~ops ~collect_coverage cfg seed =
  let cfg = Config.stress_sized { cfg with Config.seed } in
  let sys = System.build cfg in
  let o =
    Random_tester.run ~engine:sys.System.engine
      ~rng:(Rng.create ~seed:((seed * 7) + 1))
      ~ports:(Array.append sys.System.cpu_ports sys.System.accel_ports)
      ~addresses:(Array.init 6 Addr.block)
      ~ops_per_core:ops ()
  in
  note_guard_avail sys ~now:o.Random_tester.cycles;
  let guards f = Array.fold_left (fun n g -> n + f g.System.g_core) 0 sys.System.guards in
  let violations = Xg.Os_model.error_count sys.System.os in
  let r =
    {
      tester = o;
      violations;
      link_faults = sys.System.link_stats ();
      quarantined = sys.System.quarantined ();
      budget_trips = guards Xg.Xg_core.budget_trips;
      rejoins = guards Xg.Xg_core.rejoins;
      permakilled =
        Array.exists (fun g -> Xg.Xg_core.permakilled g.System.g_core) sys.System.guards;
      coverage = (if collect_coverage then sys.System.coverage_sets () else []);
      trail = None;
    }
  in
  if not (failed (Stressed r)) then r
  else
    let addr = o.Random_tester.first_error_addr in
    { r with trail = Option.map (Trace.dump ?addr ~last:trail_tail) (Obs.trace ()) }

let fuzz_job ~cpu_ops ~chaos cfg seed =
  Fuzz_tester.run { cfg with Config.seed } ~cpu_ops ?chaos_period:chaos.period
    ?respond_probability:chaos.respond ?requests_only:chaos.requests_only
    ?tarpit:chaos.tarpit ()

let stress_configs kind configs =
  match kind with Stress | Both -> configs | Fuzz -> []

let fuzz_configs kind configs =
  match kind with
  | Fuzz | Both -> List.filter Config.uses_xg configs
  | Stress -> []

let job_count kind ~configs ~seeds =
  seeds * (List.length (stress_configs kind configs) + List.length (fuzz_configs kind configs))

(* ---- the campaign ---- *)

type t = {
  tables : Table.t list;
  span_tables : Table.t list;
  coverage : Coverage.report list;
  outcomes : outcome array;
  jobs : int;
  failures : int;
  crashes : int;
  metrics : Metrics.Summary.t;
  span_total : Spans.Summary.t;
}

(* Sum two counter assoc lists, keeping [a]'s label order then [b]-only
   labels, so merged tables are stable for any worker count. *)
let merge_counts a b =
  List.map (fun (k, n) -> (k, n + Option.value ~default:0 (List.assoc_opt k b))) a
  @ List.filter (fun (k, _) -> not (List.mem_assoc k a)) b

(* Crashed jobs, and fuzz runs whose harness caught a crash. *)
let crashes = function
  | Crashed _ -> 1
  | Fuzzed o -> Bool.to_int (o.Fuzz_tester.crashed <> None)
  | Stressed _ -> 0

let link = function
  | Stressed r -> (r.link_faults, r.quarantined)
  | Fuzzed o -> (o.Fuzz_tester.link_faults, o.Fuzz_tester.quarantined)
  | Crashed _ -> ([], false)

let run ?(workers = 1) ?(collect_coverage = false) ?(stress_ops = 500)
    ?(fuzz_cpu_ops = 300) ?(seeding = Derived 42) ?(observers = no_observers)
    ?(chaos = default_chaos) kind ~configs ~seeds () =
  if seeds < 0 then invalid_arg "Campaign.run: negative seed count";
  let s_configs = Array.of_list (stress_configs kind configs) in
  let f_configs = Array.of_list (fuzz_configs kind configs) in
  let n_stress = Array.length s_configs * seeds in
  let n_fuzz = Array.length f_configs * seeds in
  let jobs = n_stress + n_fuzz in
  let seed_of =
    match seeding with
    | Derived base ->
        let s = Pool.Seed.derive_all ~base ~count:jobs in
        fun i -> s.(i)
    | Consecutive first -> fun i -> first + (i mod seeds)
  in
  (* Jobs run stress block then fuzz block, configuration-major, seed-minor. *)
  let describe i =
    let stress = i < n_stress in
    let cfg = if stress then s_configs.(i / seeds) else f_configs.((i - n_stress) / seeds) in
    let seed = seed_of i in
    let label =
      match seeding with
      | Consecutive _ -> Printf.sprintf "seed %d" seed
      | Derived _ ->
          Printf.sprintf "%s/%s/seed%d" (if stress then "stress" else "fuzz") (Config.name cfg)
            seed
    in
    (stress, cfg, seed, label)
  in
  let job i =
    let stress, cfg, seed, label = describe i in
    (* One set of recorders per job, armed on this worker's domain only;
       summaries and trails travel back as plain data and merge purely in
       job order. *)
    let run, sr, metrics =
      observe observers ~label (fun () ->
          if stress then
            Stressed (stress_job ~ops:stress_ops ~collect_coverage cfg seed)
          else Fuzzed (fuzz_job ~cpu_ops:fuzz_cpu_ops ~chaos cfg seed))
    in
    let spans = match sr with None -> Spans.Summary.empty | Some r -> Spans.summary r in
    (run, spans, (if observers.timeline then sr else None), metrics)
  in
  let outcomes =
    Array.mapi
      (fun i result ->
        let _, config, seed, label = describe i in
        (* Crash isolation: a raising job reports as a failed run instead of
           killing the sweep. *)
        let run, spans, timeline, metrics =
          match result with
          | Pool.Done r -> r
          | Pool.Failed e -> (Crashed e, Spans.Summary.empty, None, Metrics.Summary.empty)
        in
        { config; seed; label; run; spans; timeline; metrics })
      (Pool.map ~workers ~jobs job)
  in
  (* Everything below folds the outcomes in job order, so it is
     byte-identical for any [workers].  A crashed job's summaries are empty,
     so merging them is a no-op. *)
  let sum f os = Array.fold_left (fun n o -> n + f o.run) 0 os in
  let stress f = sum (function Stressed r -> f r | _ -> 0) in
  let fuzz f = sum (function Fuzzed o -> f o | _ -> 0) in
  let merge_spans os =
    Array.fold_left (fun acc o -> Spans.Summary.merge acc o.spans) Spans.Summary.empty os
  in
  let link_faults os =
    Array.fold_left
      (fun acc o -> match fst (link o.run) with [] -> acc | f -> merge_counts acc f)
      [] os
  in
  (* One row per configuration, over its slice of the outcomes. *)
  let rows configs offset =
    Array.to_list
      (Array.mapi (fun c cfg -> (cfg, Array.sub outcomes (offset + (c * seeds)) seeds)) configs)
  in
  let table ~title ~columns rows cells =
    let faulty = List.exists (fun (_, os) -> link_faults os <> []) rows in
    let t =
      Table.create ~title
        ~columns:
          (columns @ (if faulty then [ "injected"; "retx"; "quarantines" ] else []) @ [ "result" ])
    in
    List.iter
      (fun (cfg, os) ->
        let injected, retx = link_totals (link_faults os) in
        Table.add_row t
          ((Config.name cfg :: Table.cell_int (Array.length os) :: cells os)
          @ (if faulty then
               List.map Table.cell_int
                 [ injected; retx; sum (fun r -> Bool.to_int (snd (link r))) os ]
             else [])
          @ [ (if sum (fun r -> Bool.to_int (failed r)) os = 0 then "ok" else "FAIL") ]))
      rows;
    t
  in
  let stress_rows = rows s_configs 0 and fuzz_rows = rows f_configs n_stress in
  let tables =
    (if Array.length s_configs = 0 then []
     else
       [
         table
           ~title:(Printf.sprintf "Campaign: random coherence stress (%d seeds/config)" seeds)
           ~columns:
             [ "Configuration"; "runs"; "ops"; "data errors"; "deadlocks"; "violations";
               "crashes" ]
           stress_rows
           (fun os ->
             List.map Table.cell_int
               [
                 stress (fun r -> r.tester.Random_tester.ops_completed) os;
                 stress (fun r -> r.tester.Random_tester.data_errors) os;
                 stress (fun r -> Bool.to_int r.tester.Random_tester.deadlocked) os;
                 stress (fun r -> r.violations) os;
                 sum crashes os;
               ]);
       ])
    @
    if Array.length f_configs = 0 then []
    else
      [
        table
          ~title:(Printf.sprintf "Campaign: guard fuzzing (%d seeds/config)" seeds)
          ~columns:
            [ "Configuration"; "runs"; "chaos msgs"; "cpu ops"; "data errors"; "deadlocks";
              "violations"; "crashes" ]
          fuzz_rows
          (fun os ->
            let fuzz f = fuzz f os in
            Fuzz_tester.(
              Table.cell_int (fuzz (fun o -> o.chaos_messages))
              :: Printf.sprintf "%d/%d"
                   (fuzz (fun o -> o.cpu_ops_completed))
                   (fuzz (fun o -> o.cpu_ops_expected))
              :: List.map Table.cell_int
                   [
                     fuzz (fun o -> o.cpu_data_errors);
                     fuzz (fun o -> Bool.to_int o.deadlocked);
                     fuzz (fun o -> o.violations);
                     sum crashes os;
                   ]));
      ]
  in
  (* Coverage merges per controller kind, in first-seen order. *)
  let cov_order = ref [] and cov_tbl = Hashtbl.create 8 in
  Array.iter
    (fun o ->
      let sets =
        match o.run with
        | Stressed r -> r.coverage
        | Fuzzed f when collect_coverage -> f.Fuzz_tester.coverage_sets
        | _ -> []
      in
      List.iter
        (fun (name, space, groups) ->
          match Hashtbl.find_opt cov_tbl name with
          | Some (_, acc) -> acc := !acc @ groups
          | None ->
              cov_order := name :: !cov_order;
              Hashtbl.add cov_tbl name (space, ref groups))
        sets)
    outcomes;
  let span_tables =
    (* Metrics-only runs arm span recorders for quantile sampling, but the
       attribution tables remain opt-in via [observers.spans] so metrics never
       change the pre-existing report text. *)
    if not observers.spans then []
    else
      List.filter_map
        (fun (label, (cfg, os)) ->
          Spans.Summary.attribution_table
            ~title:(Printf.sprintf "Latency attribution (cycles): %s %s" label (Config.name cfg))
            (merge_spans os))
        (List.map (fun r -> ("stress", r)) stress_rows @ List.map (fun r -> ("fuzz", r)) fuzz_rows)
  in
  {
    tables;
    span_tables;
    coverage =
      List.rev_map
        (fun name ->
          let space, groups = Hashtbl.find cov_tbl name in
          Coverage.analyze space !groups)
        !cov_order;
    outcomes;
    jobs;
    failures = sum (fun r -> Bool.to_int (failed r)) outcomes;
    crashes = sum (function Crashed _ -> 1 | _ -> 0) outcomes;
    metrics =
      Array.fold_left
        (fun acc (o : outcome) -> Metrics.Summary.merge acc o.metrics)
        Metrics.Summary.empty outcomes;
    span_total = merge_spans outcomes;
  }

let passed t = t.failures = 0

let render t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun table ->
      Buffer.add_string buf (Table.to_string table);
      Buffer.add_char buf '\n')
    (t.tables @ t.span_tables);
  List.iter
    (fun report ->
      Buffer.add_string buf (Coverage.to_string report);
      Buffer.add_char buf '\n')
    t.coverage;
  Printf.bprintf buf "jobs %d  failures %d  crashes %d\n%s\n" t.jobs t.failures
    t.crashes
    (if t.failures = 0 then "PASS" else "FAIL");
  Buffer.contents buf
