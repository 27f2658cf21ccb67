(* Runs repetitions of one workload and turns them into the end-to-end and
   per-layer metrics of {!Report}. *)

module W = Workloads

(* How one repetition runs: with benchmark spans and port counters
   ([traced]), on how many PDES workers (topo4), and with the observer
   stack armed (recovery). *)
type variant = { traced : bool; workers : int; armed : bool }

type rep = {
  variant : variant;
  round : int;  (* which input set: round [r] draws its inputs from ([--seed], r) *)
  wall_s : float;
  setup_s : float;
  run_s : float;
  tally : W.tally;
  accel_port : Tracer.port_stats;
  host_port : Tracer.port_stats;
  alloc_bytes : float;
  minor_gcs : int;
  major_gcs : int;
  tracer : Tracer.t;
  digest : string;
}

let nproc () = Domain.recommended_domain_count ()

let default_variant (wl : W.workload) =
  {
    traced = false;
    workers = (if wl.W.name = "topo4" then min (nproc ()) 4 else 1);
    armed = wl.W.name = "recovery";
  }

(* Round 0 runs on [--seed] itself, so its digest is the run's sim_digest
   whatever number of rounds fits in the time. *)
let input_seed ~seed ~round =
  if round = 0 then seed else Xguard_parallel.Pool.Seed.derive ~base:seed ~job:round

let run_rep ?(baseline = "MODEL_BASELINE.json") ?(round = 0) (wl : W.workload) ~scale ~seed
    variant =
  Gc.full_major ();
  let tr = Tracer.create ~on:variant.traced in
  let accel_port = Tracer.port_stats () and host_port = Tracer.port_stats () in
  let ctx =
    {
      W.scale;
      seed = input_seed ~seed ~round;
      tr;
      accel_port = (if variant.traced then Some accel_port else None);
      host_port = (if variant.traced then Some host_port else None);
      workers = variant.workers;
      armed = variant.armed;
      baseline;
    }
  in
  let t = W.tally () in
  let g0 = Gc.quick_stat () in
  let t0 = Tracer.now_ns () in
  (try Tracer.call tr Tracer.Other "rep" (fun () -> wl.W.drive ctx t)
   with e -> W.settle t ~label:wl.W.name ~units:1 ~failed:1 [ "crash: " ^ Printexc.to_string e ]);
  let wall_s = float_of_int (Tracer.now_ns () - t0) *. 1e-9 in
  let g1 = Gc.quick_stat () in
  let words s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  {
    variant;
    round;
    wall_s;
    setup_s = Tracer.setup_s tr;
    run_s = Tracer.run_s tr;
    tally = t;
    accel_port;
    host_port;
    alloc_bytes = (words g1 -. words g0) *. float_of_int (Sys.word_size / 8);
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    tracer = tr;
    digest = Digest.to_hex (Digest.string (Buffer.contents t.W.digest));
  }

let units r = float_of_int (r.tally.W.attempted - r.tally.W.failed)

(* Rounds 0, 1, ... until [seconds] are spent: at least [min_rounds], and
   no round is started that would end past the deadline. *)
let repeat ~seconds ~min_rounds round =
  let t0 = Tracer.now_ns () in
  let secs since = float_of_int (Tracer.now_ns () - since) *. 1e-9 in
  let rec go acc n =
    let start = Tracer.now_ns () in
    let acc = List.rev_append (round n) acc in
    let last = secs start in
    if n + 1 >= min_rounds && secs t0 +. last > seconds then List.rev acc else go acc (n + 1)
  in
  go [] 0

type outcome = {
  workload : W.workload;
  seed : int;
  warmup : rep;
  reps : rep list;  (* timed repetitions, every variant *)
  base : variant;
}

(* The E2E pass: an untimed warm-up at smoke scale, then one timed
   repetition of the default variant per round. *)
let e2e ?baseline wl ~seed ~seconds =
  let base = default_variant wl in
  let warmup = run_rep ?baseline wl ~scale:W.Smoke ~seed base in
  let reps =
    repeat ~seconds ~min_rounds:3 (fun round ->
        [ run_rep ?baseline ~round wl ~scale:W.Full ~seed base ])
  in
  { workload = wl; seed; warmup; reps; base }

(* The traced pass: per round, the default variant runs beside a traced one
   (for [bench.trace_overhead]), an unarmed one on recovery
   ([obs.armed_cost]) and a one-worker one on topo4 ([pdes.speedup]), all on
   the round's inputs. *)
let trace_variants wl =
  let base = default_variant wl in
  [ base; { base with traced = true } ]
  @ (if base.armed then [ { base with armed = false } ] else [])
  @ if base.workers > 1 then [ { base with workers = 1 } ] else []

let traced ?baseline wl ~seed ~seconds =
  let base = default_variant wl in
  let warmup = run_rep ?baseline wl ~scale:W.Smoke ~seed base in
  let reps =
    repeat ~seconds ~min_rounds:1 (fun round ->
        List.map (run_rep ?baseline ~round wl ~scale:W.Full ~seed) (trace_variants wl))
  in
  { workload = wl; seed; warmup; reps; base }

let of_variant o v = List.filter (fun r -> r.variant = v) o.reps
let base_reps o = of_variant o o.base

(* ---- verdict ---- *)

let all_reps o = o.warmup :: o.reps

let attempted o = List.fold_left (fun acc r -> acc + r.tally.W.attempted) 0 (all_reps o)

(* Repetitions of one round share their inputs and must simulate exactly
   alike.  Tracing and the PDES worker count never change the simulation;
   arming the observers does (the armed sampler's last tick stretches the
   run's final clock), so a repetition is compared with the round's first
   one of the same arming. *)
let mismatched o r =
  match
    List.find_opt (fun x -> x.round = r.round && x.variant.armed = r.variant.armed) o.reps
  with
  | Some first -> r.digest <> first.digest
  | None -> false

(* Failed units; every unit of a mismatched repetition counts as failed (a
   nondeterministic simulator is a wrong one). *)
let failed o =
  List.fold_left
    (fun acc r ->
      acc + if r != o.warmup && mismatched o r then r.tally.W.attempted else r.tally.W.failed)
    0 (all_reps o)

let failures o =
  List.concat_map (fun r -> List.rev r.tally.W.failures) (all_reps o)
  @
  if List.exists (mismatched o) o.reps then [ "sim_digest differs between repetitions" ]
  else []

let digest o = match base_reps o with r :: _ -> r.digest | [] -> ""

(* ---- metrics ---- *)

let peak_rss_mb () =
  let from_proc =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | exception Sys_error _ -> None
    | text ->
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] ->
                Option.map
                  (fun kb -> float_of_int kb /. 1024.)
                  (int_of_string_opt (List.hd (String.split_on_char ' ' (String.trim v))))
            | _ -> None)
          (String.split_on_char '\n' text)
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Per-repetition samples of every end-to-end metric (peak RSS is one
   process-wide reading). *)
let e2e_samples o =
  let reps = base_reps o in
  let per f = List.map f reps in
  List.map
    (fun (mt : Report.metric) ->
      let xs =
        match mt.Report.name with
        | "ops_per_s" -> per (fun r -> if r.run_s > 0. then units r /. r.run_s else 0.)
        | "wall_s" -> per (fun r -> r.wall_s)
        | "setup_s" -> per (fun r -> r.setup_s)
        | "peak_rss_mb" -> [ peak_rss_mb () ]
        | other -> invalid_arg ("no end-to-end metric " ^ other)
      in
      (mt, xs))
    Report.end_to_end

let div a b = if b > 0. then a /. b else 0.

(* Nearest-rank percentile of a latency histogram ([counts.(c)] samples of
   [c] cycles). *)
let percentile counts p =
  let n = Array.fold_left ( + ) 0 counts in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  let rec go c acc =
    if c >= Array.length counts then 0
    else if acc + counts.(c) >= rank then c
    else go (c + 1) (acc + counts.(c))
  in
  if n = 0 then 0 else go 0 0

(* Geomean over kernels x hosts x the four guarded organizations of
   cycles(XG) / cycles(accel-side): the paper's E3 claim. *)
let xg_slowdown (t : W.tally) =
  let logs =
    Hashtbl.fold
      (fun (k, host, org) cyc acc ->
        if org = "accel-side" || org = "host-side" then acc
        else
          match Hashtbl.find_opt t.W.cycles (k, host, "accel-side") with
          | Some base when base > 0 && cyc > 0 ->
              log (float_of_int cyc /. float_of_int base) :: acc
          | _ -> acc)
      t.W.cycles []
  in
  match logs with
  | [] -> 0.
  | _ -> exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

(* Every per-layer metric, from the traced pass.  Simulated counts come from
   one traced repetition (they repeat exactly); host times are medians over
   the repetitions of their variant.  Metrics a workload's entry points do
   not expose read 0. *)
let per_layer_values o =
  let base = base_reps o in
  let traced = List.filter (fun r -> r.variant.traced) o.reps in
  let tr = match traced with r :: _ -> r | [] -> invalid_arg "per_layer_values: no traced repetition" in
  let t = tr.tally in
  let c = W.get t in
  let u = units tr in
  let per x = div x u in
  let med f rs = match rs with [] -> 0. | _ -> Report.median (List.map f rs) in
  let wall rs = med (fun r -> r.wall_s) rs in
  let port (ps : Tracer.port_stats) =
    (float_of_int ps.Tracer.issues, float_of_int ps.Tracer.accepts, float_of_int ps.Tracer.issue_ns)
  in
  let a_issues, a_accepts, a_ns = port tr.accel_port in
  let h_issues, h_accepts, h_ns = port tr.host_port in
  let lat = t.W.latencies in
  let p99 = percentile lat 0.99 in
  let self name =
    med
      (fun r ->
        List.fold_left
          (fun acc (n, _, s) -> if n = name then acc +. s else acc)
          0. (Tracer.self_times r.tracer))
      traced
  in
  let build_calls =
    List.fold_left
      (fun acc (n, calls, _) -> if n = "system.build" then acc + calls else acc)
      0 (Tracer.self_times tr.tracer)
  in
  let dom_events =
    Hashtbl.fold
      (fun k v acc -> if String.starts_with ~prefix:"dom_events." k then v :: acc else acc)
      t.W.counts []
  in
  let armed_off = { o.base with armed = false } and one_worker = { o.base with workers = 1 } in
  let values =
    [
      ("sim.events", c "events");
      ("sim.cycles", c "cycles");
      ("sim.events_per_op", per (c "events"));
      ("sim.events_per_cycle", div (c "events") (c "cycles"));
      ("sim.events_per_s", div (c "events") (med (fun r -> r.run_s) base));
      ("proto.seq.retries_per_op", per (a_issues -. a_accepts +. (h_issues -. h_accepts)));
      ("accel.port.accept_ratio", div a_accepts a_issues);
      ("host.port.accept_ratio", div h_accepts h_issues);
      ("accel.port.issue_ns", div a_ns a_issues);
      ("host.port.issue_ns", div h_ns h_issues);
      ("network.host_messages_per_op", per (c "host_messages"));
      ("network.host_bytes_per_op", per (c "host_bytes"));
      ("host.dir.requests_per_op", per (c "dir_requests"));
      ("host.writebacks_per_op", per (c "writebacks"));
      ("accel.l1.hit_ratio", div (c "l1_hits") (c "l1_hits" +. c "l1_misses"));
      ("accel.l2.hit_ratio", div (c "l2_hits") (c "l2_hits" +. c "l2_misses"));
      ("accel.lat_p50_cyc", float_of_int (percentile lat 0.5));
      ("accel.lat_p99_cyc", float_of_int p99);
      ("accel.lat_samples", float_of_int (Array.fold_left ( + ) 0 lat));
      ( "accel.lat_beyond_p99",
        float_of_int (snd (Array.fold_left (fun (c, n) k -> (c + 1, if c > p99 then n + k else n)) (0, 0) lat)) );
      ("xg.core.requests_per_op", per (c "xg_requests"));
      ("xg.core.blocked_ratio", div (c "xg_blocked") (c "xg_requests"));
      ("xg.core.violations", c "violations");
      ("xg.core.timeouts", c "xg_timeouts");
      ("xg.core.peak_storage_bits", c "xg_peak_storage_bits");
      ("xg.slowdown", xg_slowdown t);
      ("xg.link.bytes_per_op", per (c "link_bytes"));
      ("xg.link.frames_per_op", per (c "link_frames_sent" +. c "link_retransmit_frames"));
      ("xg.link.retransmit_frames", c "link_retransmit_frames");
      ( "xg.link.goodput",
        div (c "link_delivered") (c "link_frames_sent" +. c "link_retransmit_frames") );
      ("xg.core.quarantines", c "quarantines");
      ("xg.core.rejoins", c "rejoins");
      ("xg.core.mttr_cyc", div (c "down_cycles") (c "rejoins"));
      ("xg.availability", div (c "availability_sum") (c "availability_points"));
      ("obs.armed_cost", if o.base.armed then div (wall base) (wall (of_variant o armed_off)) else 0.);
      ("obs.watchdog_trips", c "watchdog_trips");
      ("pdes.speedup", if o.base.workers > 1 then div (wall (of_variant o one_worker)) (wall base) else 0.);
      ( "pdes.imbalance",
        match dom_events with
        | [] -> 0.
        | _ ->
            div (List.fold_left Float.max 0. dom_events)
              (List.fold_left ( +. ) 0. dom_events /. float_of_int (List.length dom_events)) );
      ("pdes.workers", float_of_int o.base.workers);
      ("bench.nproc", float_of_int (nproc ()));
      ("system.build_s", div (self "system.build") (float_of_int build_calls));
      ("system.builds", float_of_int build_calls +. c "internal_builds");
      ("check.paths_per_state", div (c "paths") (c "states"));
      ("check.decisions_per_path", div (c "decisions") (c "paths"));
      ("check.build_share", div (c "build_ns_est") (c "explore_ns"));
      ("gc.alloc_bytes_per_op", med (fun r -> div r.alloc_bytes (units r)) base);
      ("gc.minor_collections", med (fun r -> float_of_int r.minor_gcs) base);
      ("gc.major_collections", med (fun r -> float_of_int r.major_gcs) base);
      ("bench.trace_overhead", div (wall traced) (wall base));
    ]
    @ List.map (fun s -> ("span." ^ s ^ ".self_s", self s)) Report.span_names
  in
  List.map
    (fun (mt : Report.metric) ->
      match List.assoc_opt mt.Report.name values with
      | Some v -> (mt, v)
      | None -> invalid_arg ("per-layer metric without a value: " ^ mt.Report.name))
    Report.per_layer
