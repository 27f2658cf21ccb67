(* Metric registry, summary statistics, result records and the A/B
   [compare] verdicts.  The registry is the benchmark's definition: its
   names, units, directions and bounds must match BENCHMARK.json (the test
   suite checks that they do). *)

module Json = Xguard_obs.Json

type better = Lower | Higher

(* How a run's per-round samples become its one reported value. *)
type summary =
  | Median
  | Best
      (** the best round: contention on a shared host only ever adds time,
          so the fastest round is the steadiest reading of the code's own
          speed *)

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (* share of the parent's median; end-to-end only *)
  summary : summary;
}

let m ?bound ?(summary = Median) name unit_ better = { name; unit_; better; bound; summary }

(* What a user of the simulator sees: throughput of the run phase, the
   whole repetition, set-up, and memory.  Workload-specific simulated
   results (cycles, latency, slowdown, availability) are deterministic per
   seed and live in [per_layer]. *)
let end_to_end =
  [
    m "ops_per_s" "unit/s" Higher ~bound:0.20 ~summary:Best;
    m "wall_s" "s" Lower ~bound:0.20 ~summary:Best;
    m "setup_s" "s" Lower ~bound:0.25;
    m "peak_rss_mb" "MB" Lower ~bound:0.15;
  ]

(* Benchmark spans whose self time is reported per layer. *)
let span_names =
  [
    "rep"; "job"; "prebuild"; "config"; "system.build"; "workload.gen"; "tester.prepare";
    "sequencer.start"; "engine.run"; "pdes.run_windows"; "fuzz.run"; "measure_recovery";
    "checker.explore"; "tester.finish"; "verify.quiescent"; "stats.collect";
  ]

let per_layer =
  [
    m "sim.events" "count" Lower;
    m "sim.cycles" "cycles" Lower;
    m "sim.events_per_op" "events/unit" Lower;
    m "sim.events_per_cycle" "events/cycle" Lower;
    m "sim.events_per_s" "1/s" Higher;
    m "proto.seq.retries_per_op" "retries/unit" Lower;
    m "accel.port.accept_ratio" "ratio" Higher;
    m "host.port.accept_ratio" "ratio" Higher;
    m "accel.port.issue_ns" "ns" Lower;
    m "host.port.issue_ns" "ns" Lower;
    m "network.host_messages_per_op" "msgs/unit" Lower;
    m "network.host_bytes_per_op" "B/unit" Lower;
    m "host.dir.requests_per_op" "reqs/unit" Lower;
    m "host.writebacks_per_op" "wbs/unit" Lower;
    m "accel.l1.hit_ratio" "ratio" Higher;
    m "accel.l2.hit_ratio" "ratio" Higher;
    m "accel.lat_p50_cyc" "cycles" Lower;
    m "accel.lat_p99_cyc" "cycles" Lower;
    m "accel.lat_samples" "count" Higher;
    m "accel.lat_beyond_p99" "count" Higher;
    m "xg.core.requests_per_op" "reqs/unit" Lower;
    m "xg.core.blocked_ratio" "ratio" Lower;
    m "xg.core.violations" "count" Lower;
    m "xg.core.timeouts" "count" Lower;
    m "xg.core.peak_storage_bits" "bits" Lower;
    m "xg.slowdown" "ratio" Lower;
    m "xg.link.bytes_per_op" "B/unit" Lower;
    m "xg.link.frames_per_op" "frames/unit" Lower;
    m "xg.link.retransmit_frames" "count" Lower;
    m "xg.link.goodput" "ratio" Higher;
    m "xg.core.quarantines" "count" Lower;
    m "xg.core.rejoins" "count" Higher;
    m "xg.core.mttr_cyc" "cycles" Lower;
    m "xg.availability" "ratio" Higher;
    m "obs.armed_cost" "ratio" Lower;
    m "obs.watchdog_trips" "count" Lower;
    m "pdes.speedup" "ratio" Higher;
    m "pdes.imbalance" "ratio" Lower;
    m "pdes.workers" "count" Higher;
    m "bench.nproc" "count" Higher;
    m "system.build_s" "s" Lower;
    m "system.builds" "count" Lower;
    m "check.paths_per_state" "ratio" Lower;
    m "check.decisions_per_path" "ratio" Lower;
    m "check.build_share" "ratio" Lower;
    m "gc.alloc_bytes_per_op" "B/unit" Lower;
    m "gc.minor_collections" "count" Lower;
    m "gc.major_collections" "count" Lower;
    m "bench.trace_overhead" "ratio" Lower;
  ]
  @ List.map (fun s -> m ("span." ^ s ^ ".self_s") "s" Lower) span_names

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
let better_to_string = function Lower -> "lower" | Higher -> "higher"

(* ---- statistics ---- *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile, as Python's [statistics.quantiles(xs, n=4)]
   (the default exclusive method) computes them; a single sample is its own
   quartiles. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
  end

let summarize mt xs =
  match (mt.summary, mt.better) with
  | Median, _ -> median xs
  | Best, Lower -> List.fold_left Float.min infinity xs
  | Best, Higher -> List.fold_left Float.max neg_infinity xs

(* ---- JSON emission ---- *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The contract line: exactly correct / attempted / failed / metrics. *)
let result_line ~correct ~attempted ~failed values =
  let metrics =
    String.concat ", "
      (List.map
         (fun (mt, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote mt.name) (num v)
             (Json.quote mt.unit_))
         values)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed metrics

(* A richer record for [compare]: each metric's reported value plus the
   median and quartiles of its per-round samples. *)
let record_json ~workload ~seed ~trace ~nproc ~workers ~digest ~correct ~attempted ~failed
    samples =
  let metric (mt, xs) =
    let q1, q3 = quartiles xs in
    Printf.sprintf
      "%s: {\"value\": %s, \"unit\": %s, \"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d}"
      (Json.quote mt.name) (num (summarize mt xs)) (Json.quote mt.unit_) (num (median xs))
      (num q1) (num q3) (List.length xs)
  in
  Printf.sprintf
    "{\"schema\": \"xbench-v1\", \"workload\": %s, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \
     \"workers\": %d, \"sim_digest\": %s, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n"
    (Json.quote workload) seed trace nproc workers (Json.quote digest) correct attempted failed
    (String.concat ", " (List.map metric samples))

(* ---- compare ---- *)

type verdict = Better | Regressed | Unchanged | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Regressed -> "REGRESSED"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Positive when [b] is better than [a] for this metric. *)
let gain mt a b = match mt.better with Lower -> a -. b | Higher -> b -. a

(* A regression is a median worse by more than the
   bound; a gain needs >= 10 pairs, >= 9/10 won, and a median difference
   beyond the parent's own inter-quartile spread; a spread wider than the
   bound leaves the metric unresolved unless every B run beats every A
   run. *)
let judge mt ~a ~b =
  let bound = Option.value ~default:0. mt.bound in
  let ma = median a and mb = median b in
  let q1, q3 = quartiles a in
  let rel x = if ma = 0. then 0. else x /. Float.abs ma in
  let delta = rel (gain mt ma mb) in
  let pairs = if List.length a = List.length b then List.combine a b else [] in
  let wins = List.length (List.filter (fun (x, y) -> gain mt x y > 0.) pairs) in
  let win_frac =
    if List.length pairs >= 10 then Some (float_of_int wins /. float_of_int (List.length pairs))
    else None
  in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> gain mt x y > 0.) a) b
  in
  let verdict =
    if delta < -.bound then Regressed
    else if rel (q3 -. q1) > bound && not all_better then Unresolved
    else if delta > rel (q3 -. q1) && delta > 0. then
      match win_frac with Some f when f >= 0.9 -> Better | _ -> Unresolved
    else Unchanged
  in
  (verdict, delta, win_frac)

type side = { workload : string; values : (string * float) list }

let load_record path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      (* Accept a whole run log: the record is its last JSON line. *)
      let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
      let last = match List.rev lines with l :: _ -> l | [] -> "" in
      match Json.of_string last with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok j -> (
          match Option.bind (Json.member "workload" j) Json.to_string_opt with
          | None -> Error (path ^ ": no \"workload\" (write records with --json-out)")
          | Some workload ->
              let metrics = Option.value ~default:Json.Null (Json.member "metrics" j) in
              let values =
                List.filter_map
                  (fun (k, v) ->
                    Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float_opt))
                  (Json.fields metrics)
              in
              Ok { workload; values }))

(* Prints one row per workload x end-to-end metric; returns whether any
   regressed. *)
let compare_runs (a : side list) (b : side list) =
  let workloads =
    List.sort_uniq compare (List.map (fun s -> s.workload) (a @ b))
  in
  Printf.printf "%-9s %-12s %12s %23s %12s %23s %8s %6s  %s\n" "workload" "metric" "A median"
    "A [q1, q3]" "B median" "B [q1, q3]" "delta" "wins" "verdict";
  List.fold_left
    (fun regressed w ->
      List.fold_left
        (fun regressed mt ->
          let values side =
            List.filter_map
              (fun s -> if s.workload = w then List.assoc_opt mt.name s.values else None)
              side
          in
          match (values a, values b) with
          | [], _ | _, [] -> regressed
          | va, vb ->
              let v, delta, win_frac = judge mt ~a:va ~b:vb in
              let qa1, qa3 = quartiles va and qb1, qb3 = quartiles vb in
              Printf.printf "%-9s %-12s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %+7.2f%% %6s  %s\n"
                w mt.name (median va) qa1 qa3 (median vb) qb1 qb3 (100. *. delta)
                (match win_frac with Some f -> Printf.sprintf "%.0f%%" (100. *. f) | None -> "-")
                (verdict_to_string v);
              regressed || v = Regressed)
        regressed end_to_end)
    false workloads
