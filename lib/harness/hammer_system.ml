module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module H = Xguard_host_hammer
module Xg_core = Xguard_xg.Xg_core

type t = {
  engine : Engine.t;
  rng : Rng.t;
  registry : Node.Registry.t;
  net : H.Net.t;
  memory : Memory_model.t;
  directories : H.Directory.t array;
  cpus : H.L1l2.t array;
  mutable extras : (Node.t * (int -> unit)) list;
  mutable plain : H.L1l2.t list;  (** plain caches attached with {!add_cache} *)
}

let engine t = t.engine
let rng t = t.rng
let registry t = t.registry
let net t = t.net
let memory t = t.memory
let directory t = t.directories.(0)
let directories t = t.directories
let cpus t = t.cpus

let router_of directories =
  match Array.length directories with
  | 1 ->
      let node = H.Directory.node directories.(0) in
      fun (_ : Addr.t) -> node
  | n ->
      let nodes = Array.map H.Directory.node directories in
      fun addr -> nodes.(Addr.to_int addr mod n)

let dir_router t = router_of t.directories

let create ?(num_cpus = 2) ?(variant = H.L1l2.Xg_ready) ?(sets = 2) ?(ways = 2)
    ?(ordering = Xguard_network.Network.Unordered { min_latency = 2; max_latency = 30 })
    ?(seed = 1) ?(dir_latency = 6) ?(mem_latency = 60) ?(dir_occupancy = 0)
    ?(dir_shards = 1) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let registry = Node.Registry.create () in
  let net = H.Net.create ~engine ~rng:(Rng.split rng) ~name:"hammer.net" ~ordering () in
  let memory = Memory_model.create () in
  (* One shard keeps the historical node name "dir" so single-directory
     systems stay byte-identical; shards serve disjoint block sets, so they
     can share one memory model without racing. *)
  let directories =
    Array.init dir_shards (fun i ->
        let name = if dir_shards = 1 then "dir" else Printf.sprintf "dir%d" i in
        let node = Node.Registry.fresh registry name in
        H.Directory.create ~engine ~net ~name ~node ~memory ~dir_latency
          ~mem_latency ~occupancy:dir_occupancy ())
  in
  let route = router_of directories in
  let cpus =
    Array.init num_cpus (fun i ->
        let name = "cpu" ^ string_of_int i in
        let node = Node.Registry.fresh registry name in
        H.L1l2.create ~engine ~net ~name ~node ~directory:route ~variant ~sets ~ways ())
  in
  { engine; rng; registry; net; memory; directories; cpus; extras = []; plain = [] }

let add_cache_node t name ~count_peers =
  let node = Node.Registry.fresh t.registry name in
  t.extras <- (node, count_peers) :: t.extras;
  node

let finalize t =
  let extra = List.rev t.extras in
  let cpu_nodes = Array.to_list (Array.map H.L1l2.node t.cpus) in
  let all = cpu_nodes @ List.map fst extra in
  let peers = List.length all - 1 in
  Array.iter (fun cpu -> H.L1l2.set_peer_count cpu peers) t.cpus;
  List.iter (fun (_, count_peers) -> count_peers peers) extra;
  Array.iter (fun d -> H.Directory.set_caches d all) t.directories

let cpu_ports t = Array.map H.L1l2.cpu_port t.cpus

(* ---- Host.S: the system builder's host hooks ---- *)

module Net = H.Net
module Port = H.Xg_port

type msg = H.Msg.t

let msg_addr (m : msg) = m.H.Msg.addr
let add_msg_text = H.Msg.add_text

let of_config (cfg : Config.t) =
  create ~num_cpus:cfg.Config.num_cpus ~variant:H.L1l2.Xg_ready ~sets:cfg.Config.cpu_sets
    ~ways:cfg.Config.cpu_ways
    ~ordering:
      (Xguard_network.Network.Unordered
         { min_latency = cfg.Config.host_net_min; max_latency = cfg.Config.host_net_max })
    ~seed:cfg.Config.seed ~mem_latency:cfg.Config.mem_latency
    ~dir_occupancy:cfg.Config.dir_occupancy
    ~dir_shards:
      (match cfg.Config.topology with Some topo -> topo.Topology.dir_shards | None -> 1)
    ()

(* A broadcast peer learns the cache census only at {!finalize}. *)
let add_peer t name ~create ~set_peer_count =
  let peer = ref None in
  let node =
    add_cache_node t name ~count_peers:(fun n -> Option.iter (fun p -> set_peer_count p n) !peer)
  in
  let p = create node in
  peer := Some p;
  p

let add_port t name =
  add_peer t name ~set_peer_count:Port.set_peer_count ~create:(fun node ->
      Port.create ~engine:t.engine ~net:t.net ~name ~node ~directory:(dir_router t) ())

let add_cache t name ~sets ~ways =
  let c =
    add_peer t name ~set_peer_count:H.L1l2.set_peer_count ~create:(fun node ->
        H.L1l2.create ~engine:t.engine ~net:t.net ~name ~node ~directory:(dir_router t)
          ~variant:H.L1l2.Xg_ready ~sets ~ways ())
  in
  t.plain <- t.plain @ [ c ];
  H.L1l2.cpu_port c

let dir_of t a = t.directories.(Addr.to_int a mod Array.length t.directories)
let busy t a = H.Directory.busy (dir_of t a) a
let recorded_owner t a = Option.map Node.id (H.Directory.owner (dir_of t a) a)
let dir_name = "directory"
let cache_name = "cache"
let cached t = Array.fold_right List.cons t.cpus t.plain

let caches t =
  let entry c = (H.L1l2.name c, Node.id (H.L1l2.node c), H.L1l2.check_lines c) in
  Array.fold_right (fun c acc -> entry c :: acc) t.cpus (List.map entry t.plain)

let copies t f =
  let each c = H.L1l2.check_each c (f (H.L1l2.name c)) in
  Array.iter each t.cpus;
  List.iter each t.plain

(* Two places a guard cluster hides an architectural owner copy that no
   cache line shows: the guard's trusted copy while the directory still
   records the port as owner, and the port's in-flight ownership-
   relinquishing writeback after a dirty Fwd_s (§3.2.1).  Both surface as
   owned pseudo-entries so the data-value check compares sharers against
   them instead of stale memory. *)
let hidden_owner t port core =
  let pid = Node.id (Port.node port) in
  List.filter_map
    (fun (a, st, copy) ->
      match (st, copy, H.Directory.owner (dir_of t a) a) with
      | `S, Some d, Some n when Node.id n = pid -> Some (a, `O, d)
      | _ -> None)
    (Xg_core.check_tracked core)
  @ List.map (fun (a, d) -> (a, `O, d)) (Port.check_owner_puts port)

let open_work t =
  if Array.exists (fun d -> H.Directory.open_transactions d <> 0) t.directories then
    Some "drained with an open directory transaction"
  else if Array.exists (fun d -> H.Directory.check_waiting_tables d <> 0) t.directories then
    Some "drained with queued directory work"
  else None

(* Every directory owner record points at a live owner: a cache holding the
   block E/O/M, or a guard cluster owning it through a tracked E/M line or a
   retained trusted copy after a GetS downgrade. *)
let check_reverse t guards =
  let holds a nid =
    match List.find_opt (fun (p, _) -> Node.id (Port.node p) = nid) guards with
    | Some (_, core) ->
        Xg_core.mode core <> Xg_core.Full_state
        || List.exists
             (fun (ta, st, copy) ->
               Addr.equal ta a && (st = `E || st = `M || (st = `S && copy <> None)))
             (Xg_core.check_tracked core)
    | None ->
        List.exists
          (fun c ->
            Node.id (H.L1l2.node c) = nid
            && List.exists
                 (fun (ta, st, _) -> Addr.equal ta a && (st = `E || st = `O || st = `M))
                 (H.L1l2.check_lines c))
          (cached t)
  in
  List.find_map
    (fun (a, n) ->
      if holds a (Node.id n) then None
      else
        Some
          (Printf.sprintf "directory records %s as owner of block %d but it holds nothing"
             (Node.name n) (Addr.to_int a)))
    (List.concat_map H.Directory.owner_entries (Array.to_list t.directories))

let fingerprint t buf =
  Array.iter (fun c -> H.L1l2.check_fingerprint c buf) t.cpus;
  List.iter (fun c -> H.L1l2.check_fingerprint c buf) t.plain;
  Array.iter (fun d -> H.Directory.check_fingerprint d buf) t.directories

let cpu_ctrls t = Array.map (fun c -> Node.id (H.L1l2.node c)) t.cpus
let cpu_groups t f = Array.to_list (Array.map (fun c -> (H.L1l2.name c, f c)) t.cpus)

let stats_groups t =
  cpu_groups t H.L1l2.stats
  @
  match t.directories with
  | [| d |] -> [ ("directory", H.Directory.stats d) ]
  | ds ->
      Array.to_list
        (Array.mapi (fun i d -> (Printf.sprintf "directory%d" i, H.Directory.stats d)) ds)

let coverage_groups t = cpu_groups t H.L1l2.coverage

let coverage_sets t =
  [ ("hammer.l1l2", H.L1l2.coverage_space, List.map snd (coverage_groups t)) ]
