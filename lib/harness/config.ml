type host = Topology.host = Hammer | Mesi

type xg_variant = Topology.variant = Full_state | Transactional

type accel_org =
  | Accel_side
  | Host_side
  | Xg_one_level of xg_variant
  | Xg_two_level of xg_variant

type t = {
  host : host;
  org : accel_org;
  topology : Topology.t option;
  num_cpus : int;
  num_accel_cores : int;
  seed : int;
  cpu_sets : int;
  cpu_ways : int;
  accel_sets : int;
  accel_ways : int;
  accel_l2_sets : int;
  accel_l2_ways : int;
  host_l2_sets : int;
  host_l2_ways : int;
  host_net_min : int;
  host_net_max : int;
  link_latency : int;
  link_ordered : bool;
  mem_latency : int;
  dir_occupancy : int;
  xg_timeout : int;
  suppress_put_s : bool;
  rate_limit : (float * int) option;
  os_policy : Xguard_xg.Os_model.policy;
  link_faults : Xguard_network.Network.Fault.config option;
  link_fault_scripts : Xguard_network.Network.Fault.script list;
  link_retry_timeout : int;
  link_max_retries : int;
  quarantine_after : int;
  recovery : Xguard_xg.Xg_core.recovery option;
  budgets : Xguard_xg.Xg_core.budgets;
}

let default =
  {
    host = Hammer;
    org = Xg_one_level Transactional;
    topology = None;
    num_cpus = 2;
    num_accel_cores = 1;
    seed = 42;
    cpu_sets = 32;
    cpu_ways = 4;
    accel_sets = 16;
    accel_ways = 4;
    accel_l2_sets = 32;
    accel_l2_ways = 8;
    host_l2_sets = 64;
    host_l2_ways = 8;
    host_net_min = 10;
    host_net_max = 14;
    link_latency = 8;
    link_ordered = true;
    mem_latency = 60;
    dir_occupancy = 0;
    xg_timeout = 4000;
    suppress_put_s = false;
    rate_limit = None;
    os_policy = Xguard_xg.Os_model.Log_only;
    link_faults = None;
    link_fault_scripts = [];
    link_retry_timeout = 32;
    link_max_retries = 6;
    quarantine_after = 3;
    recovery = None;
    budgets = Xguard_xg.Xg_core.no_budgets;
  }

let make ?(base = default) host org =
  let num_accel_cores =
    match org with Xg_two_level _ -> max base.num_accel_cores 2 | _ -> 1
  in
  { base with host; org; num_accel_cores }

let stress_sized t =
  {
    t with
    cpu_sets = 1;
    cpu_ways = 2;
    accel_sets = 1;
    accel_ways = 2;
    accel_l2_sets = 2;
    accel_l2_ways = 2;
    host_l2_sets = 2;
    host_l2_ways = 2;
    host_net_min = 1;
    host_net_max = 40;
  }

let host_name = function Hammer -> "hammer" | Mesi -> "mesi"

let org_name = function
  | Accel_side -> "accel-side"
  | Host_side -> "host-side"
  | Xg_one_level Full_state -> "xg-full-1lvl"
  | Xg_one_level Transactional -> "xg-trans-1lvl"
  | Xg_two_level Full_state -> "xg-full-2lvl"
  | Xg_two_level Transactional -> "xg-trans-2lvl"

let host_label = host_name
let org_label = org_name

let name t =
  match t.topology with
  | Some topo -> Topology.name topo
  | None -> host_name t.host ^ "/" ^ org_name t.org

let of_topology ?(base = default) (topo : Topology.t) =
  { base with host = topo.Topology.host; topology = Some topo }

(* A legacy XG organization is the one-spec topology that reproduces its
   historical guard exactly: no id suffix, ablation A1's unordered link as
   jitter [link_latency] (delays in [1, 2 * link_latency]), and no per-link
   faults, so the config-level model applies. *)
let guard_specs t =
  let legacy variant ~two_level =
    [
      {
        Topology.id = "";
        variant;
        cached = true;
        two_level;
        cores = t.num_accel_cores;
        link_latency = t.link_latency;
        link_jitter = (if t.link_ordered then 0 else t.link_latency);
        faults = None;
        fault_scripts = [];
      };
    ]
  in
  match t.topology with
  | Some topo -> topo.Topology.accels
  | None -> (
      match t.org with
      | Accel_side | Host_side -> []
      | Xg_one_level v -> legacy v ~two_level:false
      | Xg_two_level v -> legacy v ~two_level:true)

let uses_xg t = guard_specs t <> []

(* A spec with [faults = None] inherits the config-level model, so only
   explicit per-link settings widen the config-level answer here. *)
let spec_faulty (a : Topology.accel_spec) =
  a.Topology.faults <> None || a.Topology.fault_scripts <> []

let spec_faults_active (a : Topology.accel_spec) =
  a.Topology.fault_scripts <> []
  || match a.Topology.faults with
     | Some f -> Xguard_network.Network.Fault.active f
     | None -> false

let reliable_link t =
  t.link_faults <> None || t.link_fault_scripts <> []
  || List.exists spec_faulty (guard_specs t)

let faults_active t =
  t.link_fault_scripts <> []
  || (match t.link_faults with
     | Some f -> Xguard_network.Network.Fault.active f
     | None -> false)
  || List.exists spec_faults_active (guard_specs t)

let all_configurations ?base () =
  let orgs =
    [
      Accel_side;
      Host_side;
      Xg_one_level Full_state;
      Xg_one_level Transactional;
      Xg_two_level Full_state;
      Xg_two_level Transactional;
    ]
  in
  List.concat_map (fun host -> List.map (fun org -> make ?base host org) orgs) [ Hammer; Mesi ]
