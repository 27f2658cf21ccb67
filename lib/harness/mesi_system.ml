module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module M = Xguard_host_mesi
module Xg_core = Xguard_xg.Xg_core

type t = {
  engine : Engine.t;
  rng : Rng.t;
  registry : Node.Registry.t;
  net : M.Net.t;
  memory : Memory_model.t;
  l2 : M.L2.t;
  cpus : M.L1.t array;
  mutable plain : M.L1.t list;  (** plain caches attached with {!add_cache} *)
}

let engine t = t.engine
let rng t = t.rng
let registry t = t.registry
let net t = t.net
let memory t = t.memory
let l2 t = t.l2
let cpus t = t.cpus

let create ?(num_cpus = 2) ?(variant = M.L2.Xg_ready) ?(l1_sets = 2) ?(l1_ways = 2)
    ?(l2_sets = 4) ?(l2_ways = 4)
    ?(ordering = Xguard_network.Network.Unordered { min_latency = 2; max_latency = 30 })
    ?(seed = 1) ?(mem_latency = 60) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let registry = Node.Registry.create () in
  let net = M.Net.create ~engine ~rng:(Rng.split rng) ~name:"mesi.net" ~ordering () in
  let memory = Memory_model.create () in
  let mem_node = Node.Registry.fresh registry "memctrl" in
  let _memctrl =
    M.Memctrl.create ~engine ~net ~name:"memctrl" ~node:mem_node ~memory ~latency:mem_latency
      ()
  in
  let l2_node = Node.Registry.fresh registry "l2" in
  let l2 =
    M.L2.create ~engine ~net ~name:"l2" ~node:l2_node ~memctrl:mem_node ~variant ~sets:l2_sets
      ~ways:l2_ways ()
  in
  let cpus =
    Array.init num_cpus (fun i ->
        let name = "cpu" ^ string_of_int i in
        let node = Node.Registry.fresh registry name in
        M.L1.create ~engine ~net ~name ~node ~l2:l2_node ~sets:l1_sets ~ways:l1_ways ())
  in
  { engine; rng; registry; net; memory; l2; cpus; plain = [] }

let add_l1_node t name = Node.Registry.fresh t.registry name

let cpu_ports t = Array.map M.L1.cpu_port t.cpus

(* ---- Host.S: the system builder's host hooks ---- *)

module Net = M.Net
module Port = M.Xg_port

type msg = M.Msg.t

let msg_addr (m : msg) = m.M.Msg.addr
let add_msg_text = M.Msg.add_text

let of_config (cfg : Config.t) =
  create ~num_cpus:cfg.Config.num_cpus ~variant:M.L2.Xg_ready ~l1_sets:cfg.Config.cpu_sets
    ~l1_ways:cfg.Config.cpu_ways ~l2_sets:cfg.Config.host_l2_sets
    ~l2_ways:cfg.Config.host_l2_ways
    ~ordering:
      (Xguard_network.Network.Unordered
         { min_latency = cfg.Config.host_net_min; max_latency = cfg.Config.host_net_max })
    ~seed:cfg.Config.seed ~mem_latency:cfg.Config.mem_latency ()

let finalize (_ : t) = ()

let add_port t name =
  Port.create ~engine:t.engine ~net:t.net ~name ~node:(add_l1_node t name)
    ~l2:(M.L2.node t.l2) ()

let add_cache t name ~sets ~ways =
  let c =
    M.L1.create ~engine:t.engine ~net:t.net ~name ~node:(add_l1_node t name)
      ~l2:(M.L2.node t.l2) ~sets ~ways ()
  in
  t.plain <- t.plain @ [ c ];
  M.L1.cpu_port c

let busy t a = M.L2.busy t.l2 a

let recorded_owner t a =
  match M.L2.probe t.l2 a with `Owned n -> Some (Node.id n) | _ -> None

let dir_name = "L2"
let cache_name = "L1"
let cached t = Array.fold_right List.cons t.cpus t.plain

let caches t =
  let entry c = (M.L1.name c, Node.id (M.L1.node c), (M.L1.check_lines c :> Host.lines)) in
  Array.fold_right (fun c acc -> entry c :: acc) t.cpus (List.map entry t.plain)

(* The inclusive L2's own copy participates in the data-value invariant:
   when no L1 owns the block, the L2 is the sharer (clean) or the owner
   (dirty).  When an L1 owns it the L2 copy may legitimately be stale. *)
let copies t f =
  let each c = M.L1.check_each c (f (M.L1.name c)) in
  Array.iter each t.cpus;
  List.iter each t.plain;
  M.L2.check_own_copies t.l2 (f "host.l2")

let hidden_owner _ _ _ = []

let open_work t =
  if M.L2.open_transactions t.l2 <> 0 then Some "drained with an open L2 transaction"
  else if M.L2.check_queue_tables t.l2 <> 0 then Some "drained with queued L2 work"
  else None

(* Every L2 holder record points at live holders: an [Owned] L1 holds the
   block E/M (a full-state guard tracks it E/M), every recorded sharer holds
   it, and no L1 holds an [No_l1] block. *)
let check_reverse t guards =
  let guard_at nid = List.find_opt (fun (p, _) -> Node.id (Port.node p) = nid) guards in
  let cache_with nid = List.find_opt (fun c -> Node.id (M.L1.node c) = nid) (cached t) in
  let holds c a classes =
    List.exists (fun (ta, st, _) -> Addr.equal ta a && List.mem st classes) (M.L1.check_lines c)
  in
  List.find_map
    (fun (a, h, _, _) ->
      match h with
      | `Owned n ->
          let nid = Node.id n in
          let ok =
            match guard_at nid with
            | Some (_, core) ->
                Xg_core.mode core <> Xg_core.Full_state
                || List.exists
                     (fun (ta, st, _) -> Addr.equal ta a && (st = `E || st = `M))
                     (Xg_core.check_tracked core)
            | None -> (
                match cache_with nid with Some c -> holds c a [ `E; `M ] | None -> false)
          in
          if ok then None
          else
            Some
              (Printf.sprintf "L2 records %s as owner of block %d but it holds nothing"
                 (Node.name n) (Addr.to_int a))
      | `Sharers sh ->
          List.find_map
            (fun n ->
              let nid = Node.id n in
              if Option.is_some (guard_at nid) then None
              else
                match cache_with nid with
                | Some c when not (holds c a [ `S ]) ->
                    Some
                      (Printf.sprintf "L2 records %s sharing block %d but it holds nothing"
                         (M.L1.name c) (Addr.to_int a))
                | _ -> None)
            sh
      | `No_l1 ->
          List.find_map
            (fun c ->
              if holds c a [ `S; `E; `M ] then
                Some
                  (Printf.sprintf "L2 records block %d L1-free but %s holds it"
                     (Addr.to_int a) (M.L1.name c))
              else None)
            (cached t))
    (M.L2.check_lines t.l2)

let fingerprint t buf =
  Array.iter (fun c -> M.L1.check_fingerprint c buf) t.cpus;
  List.iter (fun c -> M.L1.check_fingerprint c buf) t.plain;
  M.L2.check_fingerprint t.l2 buf

let cpu_ctrls t = Array.map (fun c -> Node.id (M.L1.node c)) t.cpus
let cpu_groups t f = Array.to_list (Array.map (fun c -> (M.L1.name c, f c)) t.cpus)
let stats_groups t = cpu_groups t M.L1.stats @ [ ("host.l2", M.L2.stats t.l2) ]
let coverage_groups t = cpu_groups t M.L1.coverage @ [ ("host.l2", M.L2.coverage t.l2) ]

let coverage_sets t =
  [
    ("mesi.l1", M.L1.coverage_space, List.map snd (cpu_groups t M.L1.coverage));
    ("mesi.l2", M.L2.coverage_space, [ M.L2.coverage t.l2 ]);
  ]
