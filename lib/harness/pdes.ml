(* Conservative parallel discrete-event simulation over the guard topology.

   A run is partitioned into logical domains along the guard links: domain 0
   is everything host-side (CPUs, caches, directories, every guard core and
   its timers, OS, memory, the host network) and domain g+1 is guard [g]'s
   accelerator stack (L1s, L2, internal link).  The only traffic between
   domains travels on the guard links, whose Ordered latency gives the
   conservative lookahead [L]: if the earliest pending event anywhere is at
   time [m], no cross-domain message can be delivered before [m + L], so
   every domain may safely fire its events through [m + L - 1] without
   synchronizing.  The coordinator runs that window on a worker team, then
   replays the deferred observability ops and cross-domain deliveries in
   canonical (time, domain, sequence) order and opens the next window.

   Determinism: the decomposition is fixed by the topology, never by the
   worker count; windows are computed from engine clocks alone; and the
   replay order is a pure function of simulated time.  [--sim-j k] therefore
   produces byte-identical output for every [k >= 1] — the worker count only
   decides which OS thread executes a domain's window. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Shard = Xguard_sim.Shard
module Team = Xguard_parallel.Team
module Pool = Xguard_parallel.Pool
module Obs = Xguard_obs.Obs
module Metrics = Xguard_obs.Metrics

(* ---- eligibility ------------------------------------------------------- *)

(* The sharded engine refuses configurations whose mechanisms are inherently
   engine-local or would put shared mutable state on both sides of a window:
   reliability/fault timers retransmit on the sending engine, recovery
   handshakes run timers across the link, jittered links have no fixed
   lookahead.  Everything host-side only (rate limiter aside, budgets, host
   net jitter, directory shards) lives in domain 0 and needs no restriction. *)
let check_config (cfg : Config.t) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let specs = Config.guard_specs cfg in
  if specs = [] then
    err "%s has no guard link to shard on (sharded runs need a Crossing Guard)"
      (Config.name cfg)
  else if cfg.Config.link_faults <> None || cfg.Config.link_fault_scripts <> []
  then err "link fault injection uses engine-local retransmission timers"
  else if cfg.Config.recovery <> None then
    err "recovery handshakes run timers across the link"
  else if cfg.Config.rate_limit <> None then
    err "the rate limiter's token refill is engine-local"
  else if not cfg.Config.link_ordered then
    err "lookahead needs an ordered guard link (drop ordered=false)"
  else
    match
      List.find_opt
        (fun (a : Topology.accel_spec) ->
          a.Topology.link_jitter <> 0
          || a.Topology.faults <> None
          || a.Topology.fault_scripts <> [])
        specs
    with
    | None -> Ok ()
    | Some a ->
        if a.Topology.link_jitter <> 0 then
          err "%s: jittered links have no fixed lookahead" a.Topology.id
        else err "%s: link fault injection is engine-local" a.Topology.id

(* The conservative lookahead: the smallest guard-link latency.  Topology
   validation guarantees every latency >= 1, so windows always make
   progress. *)
let lookahead (cfg : Config.t) =
  List.fold_left
    (fun acc (a : Topology.accel_spec) -> min acc a.Topology.link_latency)
    max_int (Config.guard_specs cfg)

(* ---- the coordinator --------------------------------------------------- *)

type t = {
  sys : System.t;
  engines : Engine.t array;
  ctxs : Shard.ctx array;
  la : int;
  obs : Obs.t;  (** the coordinator's observer context, installed on every worker *)
  mutable next_sample : int;  (** the next sampler boundary *)
  mutable last_sample : int;  (** when the last sample was taken *)
}

let create (sys : System.t) =
  let engines = sys.System.shard_engines in
  if Array.length engines = 0 then
    invalid_arg "Pdes.create: system was not built with ~pdes:true";
  {
    sys;
    engines;
    ctxs = Array.init (Array.length engines) (fun d -> Shard.make ~dom:d);
    la = lookahead sys.System.config;
    obs = Obs.get ();
    next_sample = System.sampler_period;
    last_sample = -1;
  }

let domains t = Array.length t.engines
let engine_of t ~dom = t.engines.(dom)

(* Per-[accel_ports]-index domain, from the guard each port sits behind. *)
let accel_port_domains (sys : System.t) =
  let doms =
    Array.mapi
      (fun g (gd : System.guard) ->
        Array.make (Array.length gd.System.g_ports) (g + 1))
      sys.System.guards
  in
  Array.concat (Array.to_list doms)

let events_fired t =
  Array.fold_left (fun n e -> n + Engine.events_fired e) 0 t.engines

(* The observer samples the sequential sampler would take at each boundary
   through [bound].  Inside a window no worker may touch the recorders, so
   the coordinator samples between windows — every boundary before the next
   window's horizon, in order, exactly once, independent of the worker
   count. *)
let sample_through t bound =
  while t.next_sample <= bound do
    Metrics.tick t.obs ~now:t.next_sample;
    t.last_sample <- t.next_sample;
    t.next_sample <- t.next_sample + System.sampler_period
  done

type run_result = Drained | Hit_event_limit

(* Cycle count of a sharded run: the furthest domain clock (wall-clock of the
   simulated machine), not the per-domain sum. *)
let cycles t = Array.fold_left (fun c e -> max c (Engine.now e)) 0 t.engines

let run_windows ?(max_events = max_int) ~workers t =
  let n = Array.length t.engines in
  let sampled = Obs.sampled t.obs in
  Team.with_team ~workers @@ fun team ->
  let workers = Team.size team in
  let rec window () =
    (* The global simulation horizon: the earliest pending event anywhere. *)
    let m =
      Array.fold_left
        (fun acc e ->
          match Engine.next_at e with Some a -> min acc a | None -> acc)
        max_int t.engines
    in
    if m = max_int then Drained
    else begin
      if sampled then sample_through t (m - 1);
      let bound = m + t.la - 1 in
      (* Every domain fires its events through [bound], under the
         coordinator's observer context.  Static round-robin assignment:
         slot [s] runs domains s, s+workers, ... — a fixed mapping, so
         nothing about the round depends on thread timing. *)
      Team.round team (fun slot ->
          let d = ref slot in
          while !d < n do
            let dom = !d in
            let run () =
              Shard.with_ctx t.ctxs.(dom) (fun () ->
                  ignore (Engine.run ~until:bound t.engines.(dom)))
            in
            if Obs.armed t.obs then Obs.with_ctx t.obs run else run ();
            d := !d + workers
          done);
      (* Barrier: replay observability effects in canonical order, then
         deliver cross-domain messages (all land at >= bound + 1, so the
         next window's horizon computation sees them). *)
      Shard.run_all (Shard.drain_ops t.ctxs);
      Shard.run_all (Shard.drain_posts t.ctxs);
      if events_fired t >= max_events then Hit_event_limit else window ()
    end
  in
  let result = window () in
  (* The run stops: sample the boundaries its clock reached, then the stop
     cycle itself, as the sequential sampler does. *)
  if sampled then begin
    let stop = cycles t in
    sample_through t stop;
    if t.last_sample <> stop then Metrics.tick t.obs ~now:stop
  end;
  result

(* ---- stress driver ----------------------------------------------------- *)

(* One random tester per domain: domain 0 exercises the CPU ports, domain
   g+1 guard [g]'s accelerator ports.  Each tester owns a disjoint block
   slice, so its per-address checker state is domain-local — but the
   coherence traffic its accesses generate still crosses the guard link into
   the host directory, which is what the test is for.  Per-domain RNG
   streams are derived from the seed with the campaign splitter, so the
   workload is a pure function of (seed, domain) — never of the worker
   count. *)
let stress_blocks_per_domain = 6

let run_stress ~workers ~seed ~ops_per_core ?(event_limit = 50_000_000)
    (cfg : Config.t) =
  let sys = System.build ~pdes:true cfg in
  let t = create sys in
  let n = domains t in
  let testers =
    Array.init n (fun d ->
        let ports =
          if d = 0 then sys.System.cpu_ports
          else sys.System.guards.(d - 1).System.g_ports
        in
        let addresses =
          Array.init stress_blocks_per_domain (fun i ->
              Addr.block ((d * stress_blocks_per_domain) + i))
        in
        let rng = Rng.create ~seed:(Pool.Seed.derive ~base:(seed * 7 + 1) ~job:d) in
        Random_tester.prepare ~engine:t.engines.(d) ~rng ~ports ~addresses
          ~ops_per_core ())
  in
  let result = run_windows ~max_events:event_limit ~workers t in
  let drained = result = Drained in
  let outcomes = Array.map (fun tr -> Random_tester.finish tr ~drained) testers in
  let merged =
    Array.fold_left Random_tester.merge outcomes.(0)
      (Array.sub outcomes 1 (n - 1))
  in
  (* [merge] is built for seed sweeps where cycle counts add; within one run
     the domains advanced concurrently, so the run's clock is the maximum. *)
  (sys, { merged with Random_tester.cycles = cycles t })
