(* xbench: the repository benchmark.  Six workloads, each run in its own
   process, one at a time; see xbench/README.md for the workload table and
   the metric dictionary.

   Usage:
     xbench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                [--trace-out FILE] [--json-out FILE] [--baseline FILE]
         --trace 0 (default): the E2E pass — an untimed smoke-scale warm-up,
           then timed repetitions for S seconds (at least 3); prints every
           end-to-end metric.
         --trace 1: the traced pass — repetitions with the benchmark's spans
           and port counters alternate with untraced ones; prints every
           per-layer metric and writes a Chrome/Perfetto trace
           (default _xbench/W-seedN.trace.json).
       The last stdout line is one JSON object: correct, attempted, failed,
       metrics.  Exits 1 when any output check fails.
     xbench.exe smoke [--baseline FILE]
         every workload once at smoke scale, traced and untraced, checked.
     xbench.exe compare A.json... -- B.json...
         per workload x end-to-end metric verdicts over --json-out records;
         exits 1 on a regression. *)

module W = Workloads

let usage () =
  prerr_endline
    "usage: xbench.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] \
     [--json-out FILE] [--baseline FILE]\n\
    \       xbench.exe smoke [--baseline FILE]\n\
    \       xbench.exe compare A.json... -- B.json...\n\
     workloads: kernels stress fuzz recovery topo4 check";
  exit 2

let fail_usage fmt = Printf.ksprintf (fun s -> prerr_endline ("xbench: " ^ s); usage ()) fmt

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  json_out : string option;
  baseline : string;
}

let parse args =
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> fail_usage "%s expects an integer, got %S" flag v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: tl -> go { o with workload = Some v } tl
    | "--seed" :: v :: tl -> go { o with seed = int_arg "--seed" v } tl
    | "--seconds" :: v :: tl -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { o with seconds = s } tl
        | _ -> fail_usage "--seconds expects a positive number, got %S" v)
    | "--trace" :: v :: tl -> (
        match v with
        | "0" -> go { o with trace = false } tl
        | "1" -> go { o with trace = true } tl
        | _ -> fail_usage "--trace expects 0 or 1, got %S" v)
    | "--trace-out" :: v :: tl -> go { o with trace_out = Some v } tl
    | "--json-out" :: v :: tl -> go { o with json_out = Some v } tl
    | "--baseline" :: v :: tl -> go { o with baseline = v } tl
    | a :: _ -> fail_usage "unexpected argument %S" a
  in
  go
    {
      workload = None;
      seed = 1;
      seconds = 15.;
      trace = false;
      trace_out = None;
      json_out = None;
      baseline = "MODEL_BASELINE.json";
    }
    args

let print_failures fs =
  List.iteri (fun i f -> if i < 20 then Printf.eprintf "  FAIL %s\n" f) fs;
  if List.length fs > 20 then Printf.eprintf "  ... %d more\n" (List.length fs - 20)

let write_trace path tr =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text path (fun oc -> Tracer.write_chrome oc tr)

let print_self_times tr =
  let rows = Tracer.self_times tr in
  let total = List.fold_left (fun acc (_, _, s) -> acc +. s) 0. rows in
  Printf.eprintf "  %-20s %8s %12s %7s\n" "span (self time)" "calls" "seconds" "share";
  List.iter
    (fun (name, calls, s) ->
      Printf.eprintf "  %-20s %8d %12.6f %6.1f%%\n" name calls s
        (if total > 0. then 100. *. s /. total else 0.))
    (List.sort (fun (_, _, a) (_, _, b) -> compare b a) rows)

let run_workload o (wl : W.workload) =
  let out =
    if o.trace then Runner.traced ~baseline:o.baseline wl ~seed:o.seed ~seconds:o.seconds
    else Runner.e2e ~baseline:o.baseline wl ~seed:o.seed ~seconds:o.seconds
  in
  let attempted = Runner.attempted out and failed = Runner.failed out in
  let failures = Runner.failures out in
  let correct = failed = 0 && failures = [] in
  let digest = Runner.digest out in
  Printf.eprintf "xbench %s  seed=%d  trace=%d  nproc=%d  workers=%d  repetitions=%d  unit=%s\n"
    wl.W.name o.seed (Bool.to_int o.trace) (Runner.nproc ()) out.Runner.base.Runner.workers
    (List.length out.Runner.reps) wl.W.unit_name;
  List.iter
    (fun (r : Runner.rep) ->
      Printf.eprintf "  round %2d %-22s wall %.6f s  setup %.6f s  run %.6f s  %s\n" r.Runner.round
        (Printf.sprintf "(traced=%b workers=%d armed=%b)" r.Runner.variant.Runner.traced
           r.Runner.variant.Runner.workers r.Runner.variant.Runner.armed)
        r.Runner.wall_s r.Runner.setup_s r.Runner.run_s r.Runner.digest)
    out.Runner.reps;
  let samples =
    if o.trace then List.map (fun (mt, v) -> (mt, [ v ])) (Runner.per_layer_values out)
    else Runner.e2e_samples out
  in
  List.iter
    (fun ((mt : Report.metric), xs) ->
      let q1, q3 = Report.quartiles xs in
      Printf.eprintf "  %-30s %16.6g %-12s median %.6g [q1 %.6g, q3 %.6g] n=%d\n" mt.Report.name
        (Report.summarize mt xs) mt.Report.unit_ (Report.median xs) q1 q3 (List.length xs))
    samples;
  if o.trace then begin
    match List.find_opt (fun r -> r.Runner.variant.Runner.traced) out.Runner.reps with
    | Some r ->
        print_self_times r.Runner.tracer;
        let path =
          match o.trace_out with
          | Some p -> p
          | None -> Printf.sprintf "_xbench/%s-seed%d.trace.json" wl.W.name o.seed
        in
        write_trace path r.Runner.tracer;
        Printf.eprintf "  trace written to %s\n" path
    | None -> ()
  end;
  Printf.eprintf "  attempted=%d failed=%d correct=%b\n" attempted failed correct;
  print_failures failures;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Report.record_json ~workload:wl.W.name ~seed:o.seed ~trace:(Bool.to_int o.trace)
               ~nproc:(Runner.nproc ()) ~workers:out.Runner.base.Runner.workers ~digest ~correct
               ~attempted ~failed samples)))
    o.json_out;
  Printf.printf "sim_digest %s\n" digest;
  print_endline
    (Report.result_line ~correct ~attempted ~failed
       (List.map (fun (mt, xs) -> (mt, Report.summarize mt xs)) samples));
  if not correct then exit 1

(* Every workload once at smoke scale, untraced and traced: their checks
   must pass and their simulated digests agree. *)
let smoke baseline =
  let ok =
    List.fold_left
      (fun ok (wl : W.workload) ->
        let base = Runner.default_variant wl in
        let reps =
          List.map
            (Runner.run_rep ~baseline wl ~scale:W.Smoke ~seed:1)
            [ base; { base with Runner.traced = true } ]
        in
        let out = { Runner.workload = wl; seed = 1; warmup = List.hd reps; reps; base } in
        ignore (Runner.per_layer_values out);
        let failures = Runner.failures out in
        let pass = Runner.failed out = 0 && failures = [] in
        Printf.printf "%-9s %s  attempted=%d  digest=%s\n%!" wl.W.name
          (if pass then "ok  " else "FAIL")
          (Runner.attempted out) (Runner.digest out);
        if not pass then print_failures failures;
        ok && pass)
      true W.all
  in
  if not ok then exit 1

let compare_files args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> fail_usage "compare needs A.json... -- B.json..."
  in
  let a, b = split [] args in
  if a = [] || b = [] then fail_usage "compare needs records on both sides of --";
  let load paths =
    List.map
      (fun p -> match Report.load_record p with Ok r -> r | Error e -> fail_usage "%s" e)
      paths
  in
  if Report.compare_runs (load a) (load b) then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> compare_files rest
  | "smoke" :: rest -> smoke (parse rest).baseline
  | args -> (
      let o = parse args in
      match o.workload with
      | None -> fail_usage "--workload is required"
      | Some name -> (
          match W.find name with
          | Some wl -> run_workload o wl
          | None -> fail_usage "unknown workload %S" name))
