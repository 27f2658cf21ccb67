(* The six benchmark workloads.  Each one drives the simulator only through
   public entry points (System.build, Workload streams, Sequencer,
   Engine.run, Random_tester, Fuzz_tester, Experiments.measure_recovery,
   Pdes, Checker), times every such call through {!Tracer}, checks the
   outputs, and folds simulated counters into a {!tally}.

   All load is closed-loop in simulated time: each core keeps at most its
   [max_outstanding] accesses in flight, and the host side is a batch job
   (fixed work per repetition). *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Topology = Xguard_harness.Topology
module Tester = Xguard_harness.Random_tester
module Fuzz = Xguard_harness.Fuzz_tester
module Pdes = Xguard_harness.Pdes
module Experiments = Xguard_harness.Experiments
module W = Xguard_workload.Workload
module Group = Xguard_stats.Counter.Group
module Checker = Xguard_check.Checker
module Pool = Xguard_parallel.Pool
module Xg_core = Xguard_xg.Xg_core
module Link = Xguard_xg.Xg_iface.Link
module Os_model = Xguard_xg.Os_model
module Spans = Xguard_obs.Spans
module Metrics = Xguard_obs.Metrics
module Watchdog = Xguard_obs.Watchdog
module Json = Xguard_obs.Json

type scale = Smoke | Full

(* ---- what one repetition accumulates ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first *)
  digest : Buffer.t;  (* canonical text of every simulated outcome *)
  counts : (string, float) Hashtbl.t;  (* raw per-layer counts, summed over jobs *)
  mutable latencies : int array;  (* [.(c)]: accelerator accesses that took [c] cycles *)
  cycles : (string * string * string, int) Hashtbl.t;  (* (kernel, host, org) *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    failures = [];
    digest = Buffer.create 4096;
    counts = Hashtbl.create 64;
    latencies = [||];
    cycles = Hashtbl.create 64;
  }

let get t k = Option.value ~default:0. (Hashtbl.find_opt t.counts k)
let count t k v = Hashtbl.replace t.counts k (get t k +. v)
let count_int t k v = count t k (float_of_int v)
let peak t k v = Hashtbl.replace t.counts k (Float.max (get t k) v)

let observe_latency t cycles =
  let n = Array.length t.latencies in
  if cycles >= n then begin
    let grown = Array.make (max (cycles + 1) (2 * n)) 0 in
    Array.blit t.latencies 0 grown 0 n;
    t.latencies <- grown
  end;
  t.latencies.(cycles) <- t.latencies.(cycles) + 1

let note t fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string t.digest s;
      Buffer.add_char t.digest '\n')
    fmt

(* Record one job's work: [units] attempted, [failed] of them failed, and the
   reasons.  A job-level failure (deadlock, crash, invariant) fails every
   unit of the job. *)
let settle t ~label ~units ~failed problems =
  t.attempted <- t.attempted + units;
  t.failed <- t.failed + min units failed;
  List.iter (fun p -> t.failures <- Printf.sprintf "%s: %s" label p :: t.failures) problems

(* ---- context ---- *)

type ctx = {
  scale : scale;
  seed : int;
  tr : Tracer.t;
  accel_port : Tracer.port_stats option;  (* [Some] when ports are wrapped *)
  host_port : Tracer.port_stats option;
  workers : int;  (* topo4's PDES worker count *)
  armed : bool;  (* recovery: spans, metrics and watchdog armed *)
  baseline : string;  (* path to MODEL_BASELINE.json *)
}

let wrap ps port = match ps with Some ps -> Tracer.wrap_port ps port | None -> port

(* [per_cell] jobs for each of [cells], as [(job id, cell, seed)].  Every
   RNG seed derives from the user's [--seed] ([salt] separates the
   workloads), and every job draws its own: a repetition then averages many
   independent inputs, which keeps its cost steady from one [--seed] to the
   next. *)
let jobs ctx ~salt ~per_cell cells =
  let seeds =
    Pool.Seed.derive_all ~base:((ctx.seed * 7919) + salt) ~count:(List.length cells * per_cell)
  in
  List.concat
    (List.mapi
       (fun ci cell ->
         List.init per_cell (fun si ->
             ((ci * 1000) + si, cell, 1 + (seeds.((ci * per_cell) + si) land 0xFFFFFF))))
       cells)

(* ---- simulated counters ---- *)

(* Flat ["group.counter"] names, the same vocabulary the metrics stream uses,
   so counters read off a live system and counters summed from an armed
   metrics recorder classify identically. *)
let classify t (name, v) =
  let v = float_of_int v in
  let is_xg = name = "xg" || String.starts_with ~prefix:"xg." name in
  let is_link = String.starts_with ~prefix:"xg.link" name in
  if is_link then begin
    if String.ends_with ~suffix:".retransmit_frames" name then count t "link_retransmit_frames" v
    else if String.ends_with ~suffix:".frames_sent" name then count t "link_frames_sent" v
    else if String.ends_with ~suffix:".delivered" name then count t "link_delivered" v
  end
  else if is_xg then begin
    if String.ends_with ~suffix:".accel_request" name then count t "xg_requests" v
    else if String.ends_with ~suffix:".request_blocked" name then count t "xg_blocked" v
    else if String.ends_with ~suffix:".timeout_reply_for_accel" name then count t "xg_timeouts" v
  end
  else if String.starts_with ~prefix:"directory" name then begin
    (* "directory[N].get.<kind>" and "directory[N].put" *)
    match String.index_opt name '.' with
    | Some i ->
        let key = String.sub name (i + 1) (String.length name - i - 1) in
        if key = "put" || String.starts_with ~prefix:"get." key then count t "dir_requests" v
    | None -> ()
  end;
  if String.ends_with ~suffix:".writeback_complete" name then count t "writebacks" v

let flatten groups =
  List.concat_map
    (fun (label, g) -> List.map (fun (k, v) -> (label ^ "." ^ k, v)) (Group.to_list g))
    groups

let coverage_visits groups ~keep =
  List.fold_left
    (fun acc (_, g) ->
      List.fold_left
        (fun acc (key, n) ->
          match String.index_opt key '.' with
          | Some i when keep (String.sub key 0 i) (String.sub key (i + 1) (String.length key - i - 1)) ->
              acc + n
          | _ -> acc)
        acc (Group.to_list g))
    0 groups

(* Everything a live system exposes: stats groups, guard links, coverage
   (accelerator L1 hits, MESI L2 requests), host network and guard state. *)
let collect_system t (sys : System.t) =
  let stats =
    flatten (sys.System.stats_groups ())
    @ flatten
        (Array.to_list
           (Array.map
              (fun g ->
                ( (if g.System.g_id = "" then "xg.link" else "xg.link." ^ g.System.g_id),
                  Link.link_stats g.System.g_link ))
              sys.System.guards))
  in
  List.iter (classify t) stats;
  let cov = sys.System.coverage_groups () in
  let l1 = List.filter (fun (n, _) -> String.starts_with ~prefix:"accel.l1" n) cov in
  count_int t "l1_hits"
    (coverage_visits l1 ~keep:(fun s e ->
         (e = "Load" && (s = "M" || s = "E" || s = "S")) || (e = "Store" && (s = "M" || s = "E"))));
  count_int t "l1_misses"
    (coverage_visits l1 ~keep:(fun s e -> (s = "I" && (e = "Load" || e = "Store")) || (s = "S" && e = "Store")));
  count_int t "dir_requests"
    (coverage_visits
       (List.filter (fun (n, _) -> n = "host.l2") cov)
       ~keep:(fun _ e -> String.starts_with ~prefix:"grant." e || e = "PutS" || e = "PutM"));
  Array.iter
    (fun g ->
      Option.iter
        (fun l2 ->
          let s = Xguard_accel.L2_shared.stats l2 in
          let sum ks = List.fold_left (fun acc k -> acc + Group.get s k) 0 ks in
          count_int t "l2_hits" (sum [ "internal_transfer"; "share_hit"; "exclusive_passthrough" ]);
          count_int t "l2_misses" (sum [ "miss_below"; "upgrade_below" ]))
        g.System.g_l2;
      let core = g.System.g_core in
      peak t "xg_peak_storage_bits" (float_of_int (Xg_core.peak_storage_bits core));
      count_int t "quarantines" (Xg_core.quarantine_count core);
      count_int t "rejoins" (Xg_core.rejoins core))
    sys.System.guards;
  count_int t "violations" (Os_model.error_count sys.System.os);
  count_int t "host_messages" (sys.System.host_net_messages ());
  count_int t "host_bytes" (sys.System.host_net_bytes ());
  count_int t "link_bytes" (sys.System.link_bytes ());
  note t "host_bytes=%d link_bytes=%d violations=%d" (sys.System.host_net_bytes ())
    (sys.System.link_bytes ()) (Os_model.error_count sys.System.os);
  List.iter (fun (k, v) -> note t "%s=%d" k v) stats;
  List.iter (fun (k, v) -> note t "cov.%s=%d" k v) (flatten cov)

(* The quiescent agreement check models guarded organizations only: it does
   not enumerate the unguarded accelerator-side or host-side cache, whose
   lines the host directory then reports as missing. *)
let quiescent ctx (sys : System.t) =
  if not (Config.uses_xg sys.System.config) then []
  else
    match Tracer.check ctx.tr "verify.quiescent" sys.System.check_quiescent_invariant with
    | Some msg -> [ "quiescent invariant: " ^ msg ]
    | None -> []

let honest_violations (sys : System.t) =
  match Os_model.error_count sys.System.os with
  | 0 -> []
  | n -> [ Printf.sprintf "%d guard violations on honest traffic" n ]

(* A checked random-tester run: every op must complete with correct data,
   with no deadlock and a clean quiescent state. *)
let tester_verdict ctx t ~label ~attempted ~drained (o : Tester.outcome) sys =
  let job_level =
    (if o.Tester.deadlocked || not drained then [ "deadlock" ] else [])
    @ honest_violations sys
    @ if drained then quiescent ctx sys else []
  in
  let op_level =
    if o.Tester.data_errors > 0 then [ Printf.sprintf "%d data errors" o.Tester.data_errors ]
    else []
  in
  let failed =
    if job_level <> [] then attempted
    else attempted - o.Tester.ops_completed + o.Tester.data_errors
  in
  settle t ~label ~units:attempted ~failed (job_level @ op_level);
  count_int t "cycles" o.Tester.cycles;
  note t "%s ops=%d errors=%d deadlocked=%b cycles=%d" label o.Tester.ops_completed
    o.Tester.data_errors o.Tester.deadlocked o.Tester.cycles

(* Events fired by [f] on this domain (every workload but topo4 simulates
   on the calling domain only). *)
let counting_events t f =
  let e0 = Engine.events_fired_here () in
  let r = f () in
  count_int t "events" (Engine.events_fired_here () - e0);
  r

(* ======================= kernels ======================= *)

let kernel_set = function
  | Smoke ->
      [
        W.streaming ~length:24 ();
        W.write_coalesce ~regions:2 ();
        W.blocked ~tiles:8 ();
        W.graph ~nodes:64 ~steps:300 ();
        W.producer_consumer ~rounds:8 ();
      ]
  | Full ->
      [
        W.streaming ~length:256 ();
        W.write_coalesce ~regions:5 ();
        W.blocked ~tiles:140 ();
        W.graph ~nodes:1024 ~steps:4000 ();
        W.producer_consumer ~rounds:100 ();
      ]

(* [Perf_runner.drive], with the issue->commit latency handed to
   [on_latency]. *)
let drive seq (stream : W.stream) ~on_latency =
  let total = Array.length stream.W.accesses in
  let issued = ref 0 and completed = ref 0 in
  let rec top_up () =
    if !issued < total && !issued - !completed < stream.W.max_outstanding then begin
      let access = stream.W.accesses.(!issued) in
      incr issued;
      Sequencer.request seq access ~on_complete:(fun _ ~latency ->
          on_latency latency;
          incr completed;
          if !completed < total then top_up ());
      top_up ()
    end
  in
  top_up ()

type kernel_run = { k_cycles : int; k_accel_accesses : int }

(* One E3 cell, mirroring [Perf_runner.run] on the sequential engine: accel
   sequencers keep 32 accesses in flight, CPU sequencers 16. *)
let kernel_job ctx t ~job ~seed (wl : W.t) base =
  let tr = ctx.tr in
  Tracer.job tr ~id:job "job" @@ fun () ->
  let cfg = Tracer.setup tr "config" (fun () -> { base with Config.seed }) in
  let label = wl.W.name ^ " " ^ Config.name cfg in
  let sys = Tracer.setup tr "system.build" (fun () -> System.build cfg) in
  let accel_streams, cpu_streams =
    Tracer.setup tr "workload.gen" (fun () ->
        let rng = Rng.create ~seed:((seed * 131) + 17) in
        let accel =
          wl.W.make_streams ~cores:(Array.length sys.System.accel_ports) ~rng:(Rng.split rng)
        in
        let cpu = wl.W.cpu_streams ~cpus:(Array.length sys.System.cpu_ports) ~rng:(Rng.split rng) in
        (accel, cpu))
  in
  let start kind ports streams ~max_outstanding ~on_latency ps =
    let seqs =
      Array.mapi
        (fun i port ->
          Sequencer.create ~engine:sys.System.engine
            ~name:(Printf.sprintf "perf.%s%d" kind i)
            ~port:(wrap ps port) ~max_outstanding ())
        ports
    in
    let units = ref 0 in
    Array.iteri
      (fun i stream ->
        if i < Array.length seqs then begin
          units := !units + Array.length stream.W.accesses;
          drive seqs.(i) stream ~on_latency
        end)
      streams;
    (seqs, !units)
  in
  let (accel_seqs, accel_units), (cpu_seqs, cpu_units) =
    Tracer.run tr "sequencer.start" (fun () ->
        let a =
          start "accel" sys.System.accel_ports accel_streams ~max_outstanding:32
            ~on_latency:(observe_latency t)
            ctx.accel_port
        in
        let c =
          start "cpu" sys.System.cpu_ports cpu_streams ~max_outstanding:16 ~on_latency:ignore
            ctx.host_port
        in
        (a, c))
  in
  let result =
    Tracer.run tr "engine.run" (fun () ->
        counting_events t (fun () -> Engine.run ~max_events:200_000_000 sys.System.engine))
  in
  let drained = result = Engine.Drained in
  let completed seqs = Array.fold_left (fun acc s -> acc + Sequencer.completed s) 0 seqs in
  let attempted = accel_units + cpu_units in
  let done_ = completed accel_seqs + completed cpu_seqs in
  let job_level =
    (if drained then [] else [ "hit the event limit" ])
    @ honest_violations sys
    @ if drained then quiescent ctx sys else []
  in
  let op_level =
    if done_ < attempted then [ Printf.sprintf "%d accesses never completed" (attempted - done_) ]
    else []
  in
  settle t ~label ~units:attempted
    ~failed:(if job_level <> [] then attempted else attempted - done_)
    (job_level @ op_level);
  let cycles = Engine.now sys.System.engine in
  Tracer.check tr "stats.collect" (fun () ->
      count_int t "cycles" cycles;
      Hashtbl.replace t.cycles
        (wl.W.name, Config.host_label cfg.Config.host, Config.org_label cfg.Config.org)
        cycles;
      note t "%s cycles=%d accesses=%d/%d" label cycles done_ attempted;
      collect_system t sys);
  { k_cycles = cycles; k_accel_accesses = completed accel_seqs }

(* A kernel's seed is shared by all 12 configurations, so that
   [xg.slowdown] compares identical streams. *)
let kernels ctx t =
  let configs = Config.all_configurations () in
  List.iter
    (fun (job, wl, seed) ->
      List.iteri (fun ci cfg -> ignore (kernel_job ctx t ~job:(job + ci) ~seed wl cfg)) configs)
    (jobs ctx ~salt:1 ~per_cell:1 (kernel_set ctx.scale))

(* ======================= stress ======================= *)

let stress_params = function Smoke -> (1, 60) | Full -> (3, 300)

let stress ctx t =
  let tr = ctx.tr in
  let per_cell, ops_per_core = stress_params ctx.scale in
  List.iter
    (fun (job, base, seed) ->
      Tracer.job tr ~id:job "job" @@ fun () ->
      let cfg = Tracer.setup tr "config" (fun () -> Config.stress_sized { base with Config.seed }) in
      let sys = Tracer.setup tr "system.build" (fun () -> System.build cfg) in
      let ports =
        Array.append
          (Array.map (wrap ctx.host_port) sys.System.cpu_ports)
          (Array.map (wrap ctx.accel_port) sys.System.accel_ports)
      in
      let tester =
        Tracer.setup tr "tester.prepare" (fun () ->
            Tester.prepare ~engine:sys.System.engine
              ~rng:(Rng.create ~seed:((seed * 7) + 1))
              ~ports ~addresses:(Array.init 6 Addr.block) ~ops_per_core ())
      in
      let result =
        Tracer.run tr "engine.run" (fun () ->
            counting_events t (fun () -> Engine.run ~max_events:50_000_000 sys.System.engine))
      in
      let drained = result = Engine.Drained in
      let o = Tracer.check tr "tester.finish" (fun () -> Tester.finish tester ~drained) in
      let label = Printf.sprintf "%s seed %d" (Config.name cfg) seed in
      tester_verdict ctx t ~label ~attempted:(ops_per_core * Array.length ports) ~drained o sys;
      Tracer.check tr "stats.collect" (fun () -> collect_system t sys))
    (jobs ctx ~salt:2 ~per_cell (Config.all_configurations ()))

(* ======================= fuzz ======================= *)

let fuzz_params = function Smoke -> (1, 100) | Full -> (8, 1000)

(* Build each configuration the fuzzer will build internally, once, so that
   set-up cost has a measurement of its own. *)
let prebuild ctx ?attach_accel configs =
  List.iteri
    (fun i cfg ->
      Tracer.job ctx.tr ~id:i "prebuild" @@ fun () ->
      ignore (Tracer.setup ctx.tr "system.build" (fun () -> System.build ?attach_accel cfg)))
    configs

(* Safety under hostile traffic: no crash, no deadlock, every CPU op
   completes, and (Shared_ro pool) every CPU load sees exact data.  Guard
   violations are expected and are not failures.  Any problem fails every
   chaos message of the run. *)
let fuzz_verdict t ~label (o : Fuzz.outcome) =
  let problems =
    (match o.Fuzz.crashed with Some c -> [ "crash: " ^ c.Fuzz.exn_text ] | None -> [])
    @ (if o.Fuzz.deadlocked then [ "deadlock" ] else [])
    @ (if o.Fuzz.cpu_data_errors > 0 then
         [ Printf.sprintf "%d CPU data errors" o.Fuzz.cpu_data_errors ]
       else [])
    @
    if o.Fuzz.cpu_ops_completed < o.Fuzz.cpu_ops_expected then
      [ Printf.sprintf "%d of %d CPU ops completed" o.Fuzz.cpu_ops_completed o.Fuzz.cpu_ops_expected ]
    else []
  in
  let units = max 1 o.Fuzz.chaos_messages in
  settle t ~label ~units ~failed:(if problems = [] then 0 else units) problems

let fuzz ctx t =
  let tr = ctx.tr in
  let per_cell, cpu_ops = fuzz_params ctx.scale in
  let configs =
    Tracer.setup tr "config" (fun () -> List.filter Config.uses_xg (Config.all_configurations ()))
  in
  prebuild ctx ~attach_accel:false configs;
  let requests = [ "GetS"; "GetM"; "PutS"; "PutE"; "PutM" ] in
  List.iter
    (fun (job, base, seed) ->
      Tracer.job tr ~id:job "job" @@ fun () ->
      let cfg = Tracer.setup tr "config" (fun () -> { base with Config.seed }) in
      let o =
        Tracer.run tr "fuzz.run" (fun () ->
            counting_events t (fun () -> Fuzz.run cfg ~pool:Fuzz.Shared_ro ~cpu_ops ()))
      in
      let label = Printf.sprintf "%s seed %d" (Config.name cfg) seed in
      fuzz_verdict t ~label o;
      Tracer.check tr "stats.collect" (fun () ->
          let xg_cov =
            List.concat_map
              (fun (name, _, groups) -> if name = "xg" then List.map (fun g -> (name, g)) groups else [])
              o.Fuzz.coverage_sets
          in
          count_int t "xg_requests" (coverage_visits xg_cov ~keep:(fun _ e -> List.mem e requests));
          count_int t "xg_timeouts" (coverage_visits xg_cov ~keep:(fun _ e -> e = "Timeout"));
          count_int t "violations" o.Fuzz.violations;
          count_int t "internal_builds" 1;
          count_int t "quarantines" (if o.Fuzz.quarantined then 1 else 0);
          count_int t "rejoins" o.Fuzz.rejoins;
          note t "%s chaos=%d ignored=%d ops=%d/%d errors=%d violations=%d quarantined=%b" label
            o.Fuzz.chaos_messages o.Fuzz.invalidations_ignored o.Fuzz.cpu_ops_completed
            o.Fuzz.cpu_ops_expected o.Fuzz.cpu_data_errors o.Fuzz.violations o.Fuzz.quarantined;
          List.iter
            (fun (k, n) -> note t "  %s=%d" (Os_model.error_kind_to_string k) n)
            o.Fuzz.violations_by_kind))
    (jobs ctx ~salt:3 ~per_cell configs)

(* ======================= recovery ======================= *)

(* Four scripted wire cuts spread over the run, on top of the probabilistic
   drop rate. *)
let recovery_params = function
  | Smoke -> ([ 2 ], [ 0.1 ], 1, 60, 150, [ 1_500 ])
  | Full -> ([ 2; 3 ], [ 0.0; 0.1; 0.3 ], 12, 1_000, 2_000, [ 6_000; 18_000; 30_000; 42_000 ])

(* [Topology.symmetric] with every device cached.  It makes every third
   device uncached, and an uncached device's single-line buffer drives its
   sequencer into retry storms (about 10x the events, varying 3x from seed to
   seed) that would swamp the recovery layer's cost; topo4 keeps one. *)
let cached_symmetric n =
  let topo = Topology.symmetric ~shards:2 n in
  {
    topo with
    Topology.accels = List.map (fun a -> { a with Topology.cached = true }) topo.Topology.accels;
  }

(* Counter totals from an armed metrics recorder: the per-tick deltas sum to
   the run's totals because the fused sampler ticks once more after the last
   event. *)
let metrics_totals msum =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (b : Metrics.Summary.block) ->
      List.iter
        (fun (s : Metrics.sample) ->
          Array.iter
            (fun (k, v) ->
              match Hashtbl.find_opt tbl k with
              | Some n -> Hashtbl.replace tbl k (n + v)
              | None ->
                  order := k :: !order;
                  Hashtbl.replace tbl k v)
            s.Metrics.m_counters)
        b.Metrics.Summary.b_samples)
    (Metrics.Summary.blocks msum);
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let recovery ctx t =
  let tr = ctx.tr in
  let sizes, drops, per_cell, ops, ticks, cuts = recovery_params ctx.scale in
  let topos = Tracer.setup tr "config" (fun () -> List.map cached_symmetric sizes) in
  (* Driven ports per topology: the CPUs plus every neighbour guard's
     device (guard 0 is the scripted sharer). *)
  let driven =
    List.mapi
      (fun i topo ->
        Tracer.job tr ~id:i "prebuild" @@ fun () ->
        let sys =
          Tracer.setup tr "system.build" (fun () ->
              System.build ~attach_accel:false (Config.of_topology topo))
        in
        Array.length sys.System.cpu_ports + Array.length sys.System.accel_ports)
      topos
  in
  let cells =
    List.concat (List.map2 (fun topo d -> List.map (fun drop -> (topo, d, drop)) drops) topos driven)
  in
  List.iter
    (fun (job, (topo, driven, drop), seed) ->
      Tracer.job tr ~id:job "job" @@ fun () ->
      let label = Printf.sprintf "%s drop %.2f seed %d" (Topology.name topo) drop seed in
      let measure () =
        counting_events t (fun () ->
            Experiments.measure_recovery ~topo ~drop ~cuts ~ops ~ticks ~seed ())
      in
      let p, msum =
        Tracer.run tr "measure_recovery" (fun () ->
            if not ctx.armed then (measure (), None)
            else begin
              let sr = Spans.create () in
              let mr = Metrics.create ~watchdog:Watchdog.default () in
              let p = Spans.with_armed sr (fun () -> Metrics.with_armed mr measure) in
              (p, Some (Metrics.summary ~label mr))
            end)
      in
      let attempted = ops * driven in
      let problems =
        (if p.Experiments.rp_deadlocked then [ "deadlock" ] else [])
        @ (if p.Experiments.rp_data_errors > 0 then
             [ Printf.sprintf "%d data errors" p.Experiments.rp_data_errors ]
           else [])
        @
        if p.Experiments.rp_ops < attempted then
          [ Printf.sprintf "%d of %d ops completed" p.Experiments.rp_ops attempted ]
        else []
      in
      settle t ~label ~units:attempted
        ~failed:
          (if p.Experiments.rp_deadlocked then attempted
           else attempted - p.Experiments.rp_ops + p.Experiments.rp_data_errors)
        problems;
      Tracer.check tr "stats.collect" (fun () ->
          let down =
            match p.Experiments.rp_mttr with
            | Some m -> m *. float_of_int p.Experiments.rp_rejoins
            | None -> 0.
          in
          count t "availability_sum" p.Experiments.rp_availability;
          count t "availability_points" 1.;
          count t "down_cycles" down;
          count_int t "cycles" p.Experiments.rp_cycles;
          count_int t "internal_builds" 1;
          count_int t "quarantines" p.Experiments.rp_quarantines;
          count_int t "rejoins" p.Experiments.rp_rejoins;
          Option.iter
            (fun msum ->
              List.iter (classify t) (metrics_totals msum);
              List.iter (fun (_, n) -> count_int t "watchdog_trips" n) (Metrics.Summary.trip_counts msum))
            msum;
          note t
            "%s avail=%.17g mttr=%s quarantines=%d rejoins=%d permakilled=%b ops=%d \
             neighbor_ops=%d errors=%d deadlocked=%b cycles=%d"
            label p.Experiments.rp_availability
            (match p.Experiments.rp_mttr with Some m -> Printf.sprintf "%.17g" m | None -> "-")
            p.Experiments.rp_quarantines p.Experiments.rp_rejoins p.Experiments.rp_permakilled
            p.Experiments.rp_ops p.Experiments.rp_neighbor_ops p.Experiments.rp_data_errors
            p.Experiments.rp_deadlocked p.Experiments.rp_cycles))
    (jobs ctx ~salt:4 ~per_cell cells)

(* ======================= topo4 ======================= *)

let topo4_spec = "hammer:shards=4;g0=trans,cached;g1=full,cached;g2=trans,uncached;g3=full,2lvl"
let topo4_params = function Smoke -> (1, 100) | Full -> (8, 500)

(* Blocks per PDES domain in the sharded stress run (as in [Pdes.run_stress]). *)
let blocks_per_domain = 6

(* [Pdes.run_stress], split into its public steps so each can be timed: one
   tester per domain over a disjoint 6-block slice, the window loop, and the
   merged verdict whose clock is the furthest domain's. *)
let topo4_job ctx t ~job ~seed ~ops_per_core =
  let tr = ctx.tr in
  Tracer.job tr ~id:job "job" @@ fun () ->
  let cfg =
    Tracer.setup tr "config" (fun () ->
        match Topology.of_string topo4_spec with
        | Ok topo -> { (Config.stress_sized (Config.of_topology topo)) with Config.seed }
        | Error e -> invalid_arg ("topo4 topology: " ^ e))
  in
  let sys, coord =
    Tracer.setup tr "system.build" (fun () ->
        let sys = System.build ~pdes:true cfg in
        (sys, Pdes.create sys))
  in
  let n = Pdes.domains coord in
  (* One counter set per domain: worker domains issue concurrently. *)
  let dom_ps = Array.init n (fun _ -> Tracer.port_stats ()) in
  let testers =
    Tracer.setup tr "tester.prepare" (fun () ->
        Array.init n (fun d ->
            let ports, ps =
              if d = 0 then (sys.System.cpu_ports, ctx.host_port)
              else (sys.System.guards.(d - 1).System.g_ports, ctx.accel_port)
            in
            let ports = Array.map (wrap (Option.map (fun _ -> dom_ps.(d)) ps)) ports in
            Tester.prepare ~engine:(Pdes.engine_of coord ~dom:d)
              ~rng:(Rng.create ~seed:(Pool.Seed.derive ~base:((seed * 7) + 1) ~job:d))
              ~ports
              ~addresses:(Array.init blocks_per_domain (fun i -> Addr.block ((d * blocks_per_domain) + i)))
              ~ops_per_core ()))
  in
  let result =
    Tracer.run tr "pdes.run_windows" (fun () ->
        Pdes.run_windows ~max_events:50_000_000 ~workers:ctx.workers coord)
  in
  let drained = result = Pdes.Drained in
  let o =
    Tracer.check tr "tester.finish" (fun () ->
        let outs = Array.map (fun tester -> Tester.finish tester ~drained) testers in
        let merged = Array.fold_left Tester.merge outs.(0) (Array.sub outs 1 (n - 1)) in
        { merged with Tester.cycles = Pdes.cycles coord })
  in
  Array.iteri
    (fun d ps ->
      let target = if d = 0 then ctx.host_port else ctx.accel_port in
      Option.iter
        (fun (tp : Tracer.port_stats) ->
          tp.issues <- tp.issues + ps.Tracer.issues;
          tp.accepts <- tp.accepts + ps.Tracer.accepts;
          tp.issue_ns <- tp.issue_ns + ps.Tracer.issue_ns)
        target)
    dom_ps;
  let ports = Array.length sys.System.cpu_ports + Array.length sys.System.accel_ports in
  let label = Printf.sprintf "%s seed %d" (Config.name cfg) seed in
  tester_verdict ctx t ~label ~attempted:(ops_per_core * ports) ~drained o sys;
  Tracer.check tr "stats.collect" (fun () ->
      count_int t "events" (Pdes.events_fired coord);
      Array.iteri
        (fun d e -> count_int t (Printf.sprintf "dom_events.%d" d) (Engine.events_fired e))
        sys.System.shard_engines;
      collect_system t sys);
  o

let topo4 ctx t =
  let per_cell, ops_per_core = topo4_params ctx.scale in
  List.iter
    (fun (job, (), seed) -> ignore (topo4_job ctx t ~job ~seed ~ops_per_core))
    (jobs ctx ~salt:5 ~per_cell [ () ])

(* ======================= check ======================= *)

let check_plans = function
  | Smoke -> [ "hammer/full"; "mesi/full"; "hammer/trans"; "mesi/trans" ]
  | Full -> [ "hammer/full"; "mesi/full"; "hammer/trans"; "mesi/trans"; "mesi/full+jitter" ]

type expected = { e_states : int; e_transitions : int; e_states_md5 : string; e_edges_md5 : string }

let read_baseline path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.of_string text with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok j ->
          let entry e =
            let str k = Option.bind (Json.member k e) Json.to_string_opt in
            let int k = Option.bind (Json.member k e) Json.to_int_opt in
            match (str "name", int "states", int "transitions", str "states_md5", str "edges_md5") with
            | Some n, Some s, Some tr, Some sm, Some em ->
                Some (n, { e_states = s; e_transitions = tr; e_states_md5 = sm; e_edges_md5 = em })
            | _ -> None
          in
          Ok (List.filter_map entry (Json.to_list (Option.value ~default:Json.Null (Json.member "configs" j)))))

(* Median of a few timed builds of the plan's configuration: the
   re-execution search rebuilds it once per path. *)
let build_ns ctx cfg =
  let times =
    List.init 5 (fun _ ->
        let t0 = Tracer.now_ns () in
        ignore (Tracer.setup ctx.tr "system.build" (fun () -> System.build cfg));
        Tracer.now_ns () - t0)
  in
  List.nth (List.sort compare times) 2

let check ctx t =
  let tr = ctx.tr in
  let wanted = check_plans ctx.scale in
  let plans =
    Tracer.setup tr "config" (fun () ->
        List.filter (fun (n, _) -> List.mem n wanted) (Checker.tiny_plans ()))
  in
  let baseline = read_baseline ctx.baseline in
  List.iteri
    (fun job (name, (plan : Checker.plan)) ->
      Tracer.job tr ~id:job "job" @@ fun () ->
      let per_build = build_ns ctx plan.Checker.config in
      let t0 = Tracer.now_ns () in
      (* The checker fires events one choice at a time, outside
         [Engine.run]; each path's engine counts them. *)
      let collect (sys : System.t) = count_int t "events" (Engine.events_fired sys.System.engine) in
      let r = Tracer.run tr "checker.explore" (fun () -> Checker.explore ~collect plan) in
      let explore_ns = Tracer.now_ns () - t0 in
      let s = r.Checker.summary and d = r.Checker.diagnostics in
      let problems =
        (match baseline with
        | Error e -> [ "no baseline: " ^ e ]
        | Ok entries -> (
            match List.assoc_opt name entries with
            | None -> [ "not in baseline" ]
            | Some e ->
                if
                  e.e_states = s.Checker.states
                  && e.e_transitions = s.Checker.transitions
                  && e.e_states_md5 = s.Checker.states_digest
                  && e.e_edges_md5 = s.Checker.edges_digest
                then []
                else [ "summary differs from baseline: " ^ Checker.summary_to_string s ]))
        @ List.map (fun v -> "violation: " ^ v.Checker.message) s.Checker.violations
      in
      let units = max 1 d.Checker.paths in
      settle t ~label:name ~units ~failed:(if problems = [] then 0 else units) problems;
      Tracer.check tr "stats.collect" (fun () ->
          count_int t "paths" d.Checker.paths;
          count_int t "internal_builds" d.Checker.paths;
          count_int t "decisions" d.Checker.decisions;
          count_int t "states" s.Checker.states;
          count t "build_ns_est" (float_of_int (per_build * d.Checker.paths));
          count_int t "explore_ns" explore_ns;
          note t "%s %s paths=%d decisions=%d" name (Checker.summary_to_string s) d.Checker.paths
            d.Checker.decisions))
    plans

(* ======================= registry ======================= *)

type workload = {
  name : string;
  unit_name : string;  (* what [ops_per_s] counts *)
  drive : ctx -> tally -> unit;
}

let all =
  [
    { name = "kernels"; unit_name = "accesses committed"; drive = kernels };
    { name = "stress"; unit_name = "tester ops"; drive = stress };
    { name = "fuzz"; unit_name = "chaos messages absorbed"; drive = fuzz };
    { name = "recovery"; unit_name = "tester ops"; drive = recovery };
    { name = "topo4"; unit_name = "tester ops"; drive = topo4 };
    { name = "check"; unit_name = "paths re-executed"; drive = check };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
