(* The names xbench's topo4 workload (xbench/workloads.ml) and its test call,
   answered on the system's one sequential engine.  Every name here exists
   for topo4 only and goes with xbench v2, whose topo4 calls System.build
   and Engine.run itself. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Pool = Xguard_parallel.Pool

type t = System.t

let create sys = sys
let domains (t : t) = Array.length t.System.guards + 1
let engine_of (t : t) ~dom:_ = t.System.engine
let events_fired (t : t) = Engine.events_fired t.System.engine
let cycles (t : t) = Engine.now t.System.engine

type run_result = Drained | Hit_event_limit

let run_windows ?max_events ~workers:_ (t : t) =
  match Engine.run ?max_events t.System.engine with
  | Engine.Drained -> Drained
  | _ -> Hit_event_limit

(* One tester per domain: domain 0 on the CPU ports, domain g+1 on guard g's
   ports, each over its own 6-block slice with an RNG derived from
   (seed * 7 + 1, domain). *)
let blocks_per_domain = 6

let run_stress ~workers ~seed ~ops_per_core (cfg : Config.t) =
  let sys = System.build cfg in
  let n = domains sys in
  let testers =
    Array.init n (fun d ->
        let ports =
          if d = 0 then sys.System.cpu_ports else sys.System.guards.(d - 1).System.g_ports
        in
        let addresses =
          Array.init blocks_per_domain (fun i -> Addr.block ((d * blocks_per_domain) + i))
        in
        Random_tester.prepare ~engine:sys.System.engine
          ~rng:(Rng.create ~seed:(Pool.Seed.derive ~base:((seed * 7) + 1) ~job:d))
          ~ports ~addresses ~ops_per_core ())
  in
  let drained = run_windows ~max_events:50_000_000 ~workers sys = Drained in
  let outcomes = Array.map (fun tr -> Random_tester.finish tr ~drained) testers in
  let merged = Array.fold_left Random_tester.merge outcomes.(0) (Array.sub outcomes 1 (n - 1)) in
  (sys, { merged with Random_tester.cycles = cycles sys })
