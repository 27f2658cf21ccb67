module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Xg = Xguard_xg
module Trace = Xguard_trace.Trace
module Obs = Xguard_obs.Obs

type crash_info = { exn_text : string; seed : int; trace_tail : Trace.event list }

type outcome = {
  chaos_messages : int;
  invalidations_ignored : int;
  cpu_ops_completed : int;
  cpu_ops_expected : int;
  cpu_data_errors : int;
  violations : int;
  violations_by_kind : (Xg.Os_model.error_kind * int) list;
  deadlocked : bool;
  crashed : crash_info option;
  seed : int;
  first_error_addr : int option;
  trace_tail : Trace.event list;
  trace_dropped : int;  (* ring-buffer events lost before [trace_tail] was cut *)
  coverage_sets :
    (string * Xguard_trace.Coverage.space * Xguard_stats.Counter.Group.t list) list;
  link_faults : (string * int) list;
  quarantined : bool;
  rejoins : int;
  permakilled : bool;
  budget_trips : int;
}

type pool = Shared_rw | Disjoint | Shared_ro

let merge a b =
  let first_some x y = match x with Some _ -> x | None -> y in
  let violations_by_kind =
    (* Re-derive from the canonical kind order so the merged list is
       deterministic regardless of which runs saw which kinds first. *)
    List.filter_map
      (fun kind ->
        let of_run o = Option.value ~default:0 (List.assoc_opt kind o.violations_by_kind) in
        let n = of_run a + of_run b in
        if n > 0 then Some (kind, n) else None)
      Xg.Os_model.all_error_kinds
  in
  let coverage_sets =
    let groups_of name o =
      List.concat_map (fun (n, _, gs) -> if n = name then gs else []) o.coverage_sets
    in
    List.map
      (fun (name, space, _) -> (name, space, groups_of name a @ groups_of name b))
      a.coverage_sets
    @ List.filter
        (fun (name, _, _) -> not (List.exists (fun (n, _, _) -> n = name) a.coverage_sets))
        b.coverage_sets
  in
  let link_faults =
    (* Keys in [a]'s order, then [b]-only keys, so merged reports are stable
       whichever runs contributed. *)
    List.map
      (fun (k, n) -> (k, n + Option.value ~default:0 (List.assoc_opt k b.link_faults)))
      a.link_faults
    @ List.filter (fun (k, _) -> not (List.mem_assoc k a.link_faults)) b.link_faults
  in
  {
    chaos_messages = a.chaos_messages + b.chaos_messages;
    invalidations_ignored = a.invalidations_ignored + b.invalidations_ignored;
    cpu_ops_completed = a.cpu_ops_completed + b.cpu_ops_completed;
    cpu_ops_expected = a.cpu_ops_expected + b.cpu_ops_expected;
    cpu_data_errors = a.cpu_data_errors + b.cpu_data_errors;
    violations = a.violations + b.violations;
    violations_by_kind;
    deadlocked = a.deadlocked || b.deadlocked;
    crashed = first_some a.crashed b.crashed;
    seed = a.seed;
    first_error_addr = first_some a.first_error_addr b.first_error_addr;
    trace_tail = (if a.trace_tail <> [] then a.trace_tail else b.trace_tail);
    trace_dropped = (if a.trace_tail <> [] then a.trace_dropped else b.trace_dropped);
    coverage_sets;
    link_faults;
    quarantined = a.quarantined || b.quarantined;
    rejoins = a.rejoins + b.rejoins;
    permakilled = a.permakilled || b.permakilled;
    budget_trips = a.budget_trips + b.budget_trips;
  }

let tail_limit = 60

let dropped_of trace = match trace with None -> 0 | Some tr -> Trace.dropped tr

let tail_of trace ~addr_hint =
  match trace with
  | None -> []
  | Some tr ->
      let events =
        match addr_hint with
        | Some a -> Trace.events_for tr ~addr:a
        | None -> Trace.to_list tr
      in
      let n = List.length events in
      if n <= tail_limit then events
      else List.filteri (fun i _ -> i >= n - tail_limit) events

let run (cfg : Config.t) ?(pool = Shared_rw) ?(cpu_ops = 300) ?(chaos_period = 4)
    ?(chaos_duration = 60_000) ?(respond_probability = 0.6) ?(requests_only = false)
    ?tarpit ?(num_addresses = 6) () =
  assert (Config.uses_xg cfg);
  let trace = Obs.trace () in
  let sys = System.build ~attach_accel:false cfg in
  let chaos_addresses = Array.init num_addresses Addr.block in
  let cpu_addresses =
    match pool with
    | Shared_rw | Shared_ro -> chaos_addresses
    | Disjoint -> Array.init num_addresses (fun i -> Addr.block (1024 + i))
  in
  (match pool with
  | Shared_ro ->
      Array.iter
        (fun a -> Xg.Perm_table.set_block sys.System.perms a Perm.Read_only)
        chaos_addresses
  | Disjoint ->
      (* CPU-private pages: the accelerator has no permission, so the guard
         answers host snoops for them locally and even a lying accelerator
         cannot inject data (transactional mode admits corruption only for
         pages the accelerator may write — paper §2.3.2). *)
      Array.iter
        (fun a -> Xg.Perm_table.set_block sys.System.perms a Perm.No_access)
        cpu_addresses
  | Shared_rw -> ());
  let addresses = chaos_addresses in
  let g0 = sys.System.guards.(0) in
  let chaos =
    Xguard_accel.Chaos_accel.create ~engine:sys.System.engine
      ~rng:(Rng.create ~seed:(cfg.Config.seed * 31 + 7))
      ~link:g0.System.g_link ~self:g0.System.g_accel_node ~xg:g0.System.g_xg_node
      ~addresses ~period:chaos_period ~respond_probability ~requests_only
      ?tarpit ~duration:chaos_duration ()
  in
  (* Under a topology the chaos accelerator replaces only guard 0's device
     (the [attach_accel:false] build leaves guard 0 bare and attaches the
     rest), so the neighbor guards' ports are live.  Drive them as load-only
     consumers alongside the CPUs: their completion is the isolation claim —
     chaos on one link must not wedge its neighbors — and in [Shared_ro] their
     loads are data-checked too.  [Disjoint] denies the accelerators the CPU
     pool, so neighbors stay idle there. *)
  let neighbor_ports =
    if pool = Disjoint then [||] else sys.System.accel_ports
  in
  let driven_ports, roles =
    if Array.length neighbor_ports = 0 then (sys.System.cpu_ports, None)
    else
      ( Array.append sys.System.cpu_ports neighbor_ports,
        Some
          (Array.append
             (Array.make (Array.length sys.System.cpu_ports) Random_tester.Mixed)
             (Array.make (Array.length neighbor_ports) Random_tester.Consumer)) )
  in
  let crashed = ref None in
  let tester_outcome =
    try
      Some
        (Random_tester.run ~engine:sys.System.engine
           ~rng:(Rng.create ~seed:(cfg.Config.seed + 5))
           ~ports:driven_ports ?roles ~addresses:cpu_addresses ~ops_per_core:cpu_ops ())
    with e ->
      crashed :=
        Some
          {
            exn_text = Printexc.to_string e;
            seed = cfg.Config.seed;
            trace_tail = tail_of trace ~addr_hint:None;
          };
      None
  in
  let violations_by_kind =
    List.filter_map
      (fun kind ->
        let n = Xg.Os_model.count_of sys.System.os kind in
        if n > 0 then Some (kind, n) else None)
      Xg.Os_model.all_error_kinds
  in
  let coverage_sets = sys.System.coverage_sets () in
  let link_faults = sys.System.link_stats () in
  let quarantined = sys.System.quarantined () in
  let sum_guards f =
    Array.fold_left (fun acc g -> acc + f g.System.g_core) 0 sys.System.guards
  in
  let rejoins = sum_guards Xg.Xg_core.rejoins in
  let permakilled =
    Array.exists (fun g -> Xg.Xg_core.permakilled g.System.g_core) sys.System.guards
  in
  let budget_trips = sum_guards Xg.Xg_core.budget_trips in
  match tester_outcome with
  | Some o ->
      let first_error_addr = o.Random_tester.first_error_addr in
      let failed =
        o.Random_tester.data_errors > 0 || o.Random_tester.deadlocked
      in
      {
        chaos_messages = Xguard_accel.Chaos_accel.messages_sent chaos;
        invalidations_ignored = Xguard_accel.Chaos_accel.invalidations_ignored chaos;
        cpu_ops_completed = o.Random_tester.ops_completed;
        cpu_ops_expected = cpu_ops * Array.length driven_ports;
        cpu_data_errors = o.Random_tester.data_errors;
        violations = Xg.Os_model.error_count sys.System.os;
        violations_by_kind;
        deadlocked = o.Random_tester.deadlocked;
        crashed = None;
        seed = cfg.Config.seed;
        first_error_addr;
        trace_tail = (if failed then tail_of trace ~addr_hint:first_error_addr else []);
        trace_dropped = (if failed then dropped_of trace else 0);
        coverage_sets;
        link_faults;
        quarantined;
        rejoins;
        permakilled;
        budget_trips;
      }
  | None ->
      {
        chaos_messages = Xguard_accel.Chaos_accel.messages_sent chaos;
        invalidations_ignored = Xguard_accel.Chaos_accel.invalidations_ignored chaos;
        cpu_ops_completed = 0;
        cpu_ops_expected = cpu_ops * Array.length driven_ports;
        cpu_data_errors = 0;
        violations = Xg.Os_model.error_count sys.System.os;
        violations_by_kind;
        deadlocked = true;
        crashed = !crashed;
        seed = cfg.Config.seed;
        first_error_addr = None;
        trace_tail = tail_of trace ~addr_hint:None;
        trace_dropped = dropped_of trace;
        coverage_sets;
        link_faults;
        quarantined;
        rejoins;
        permakilled;
        budget_trips;
      }
