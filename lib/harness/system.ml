module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Xg = Xguard_xg
module A = Xguard_accel
module Obs = Xguard_obs.Obs
module Spans = Xguard_obs.Spans
module Metrics = Xguard_obs.Metrics
module Watchdog = Xguard_obs.Watchdog

(* One Crossing Guard instance and the accelerator hierarchy behind it, built
   from one {!Config.guard_specs} entry.  A legacy XG organization's spec has
   [id = ""], so every name and label renders unsuffixed; topology guards
   suffix theirs with the spec id. *)
type guard = {
  g_id : string;
  g_core : Xg.Xg_core.t;
  g_link : Xg.Xg_iface.Link.t;
  g_xg_node : Node.t;
  g_accel_node : Node.t;
  g_ports : Access.port array;
  g_l1s : A.L1_simple.t array;
  g_l2 : A.L2_shared.t option;
  g_internal : Xg.Xg_iface.Link.t option;
  g_perms : Xg.Perm_table.t;
}

type t = {
  config : Config.t;
  engine : Engine.t;
  rng : Rng.t;
  memory : Memory_model.t;
  perms : Xg.Perm_table.t;
  os : Xg.Os_model.t;
  cpu_ports : Access.port array;
  accel_ports : Access.port array;
  guards : guard array;
  (* Always [||]: xbench's topo4 reads it, until xbench v2. *)
  shard_engines : Engine.t array;
  host_net_bytes : unit -> int;
  host_net_messages : unit -> int;
  xg_port_to_host_bytes : unit -> int;
  link_bytes : unit -> int;
  coverage_groups : unit -> (string * Xguard_stats.Counter.Group.t) list;
  coverage_sets :
    unit ->
    (string * Xguard_trace.Coverage.space * Xguard_stats.Counter.Group.t list) list;
  stats_groups : unit -> (string * Xguard_stats.Counter.Group.t) list;
  set_host_monitor : (src:string -> dst:string -> addr:int -> text:string -> unit) -> unit;
  link_stats : unit -> (string * int) list;
  quarantined : unit -> bool;
  check_enable : unit -> unit;
  check_set_delay_chooser : (lo:int -> hi:int -> int) -> unit;
  check_fingerprint : Buffer.t -> unit;
  check_invariant : unit -> string option;
  check_quiescent_invariant : unit -> string option;
  check_cpu_ctrls : int array;
  check_accel_ctrls : int array;
}

let coverage_reports t =
  List.map
    (fun (_, space, groups) -> Xguard_trace.Coverage.analyze space groups)
    (t.coverage_sets ())

(* Topology guards suffix every name with the spec id; a legacy XG
   organization's guard ([id = ""]) keeps the historical names. *)
let sfx id base = if id = "" then base else base ^ "." ^ id
let guard_label g base = sfx g.g_id base

(* Trace adapter for the XG link message vocabulary (both the guard link and
   the accelerator-internal network speak it). *)
let link_tracer msg =
  (Addr.to_int (Xg.Xg_iface.msg_addr msg), Fp.to_string Xg.Xg_iface.add_msg_text msg)

(* Fault-layer reporting, gated on injection actually being possible on each
   guard's link (wire cut, scripts, or a live probability) so fault-free runs
   render byte-for-byte like pre-fault builds.  Guards merge into the same
   two set names, so campaign merges keep working at any topology size. *)
let fault_coverage_sets ~guards () =
  match List.filter (fun g -> Xg.Xg_iface.Link.faults_active g.g_link) guards with
  | [] -> []
  | active ->
      [
        ( "xg.link",
          Xg.Xg_iface.Link.coverage_space,
          List.map (fun g -> Xg.Xg_iface.Link.coverage g.g_link) active );
        ( "xg.fault",
          Xg.Xg_core.fault_coverage_space,
          List.map (fun g -> Xg.Xg_core.fault_coverage g.g_core) active );
      ]

let fault_link_stats ~guards () =
  List.concat_map
    (fun g ->
      if Xg.Xg_iface.Link.faults_active g.g_link then
        let raw =
          Xguard_stats.Counter.Group.to_list (Xg.Xg_iface.Link.link_stats g.g_link)
          @ Xguard_network.Network.Fault.counts_to_list
              (Xg.Xg_iface.Link.fault_counts g.g_link)
        in
        if g.g_id = "" then raw else List.map (fun (k, v) -> (g.g_id ^ "." ^ k, v)) raw
      else [])
    guards

let any_quarantined ~guards () =
  List.exists (fun g -> Xg.Xg_core.quarantined g.g_core) guards

(* ---- model-checker hooks (lib/check) ----

   The invariants below speak a protocol-agnostic stability lattice: [`S]
   shared, [`E] exclusive clean, [`O] owned with possible sharers, [`M]
   modified, [`T] transient (the block has an open transaction somewhere and
   is skipped — per-address invariants only apply between transactions). *)

let class_char = function `S -> 'S' | `E -> 'E' | `O -> 'O' | `M -> 'M' | `T -> 'T'

(* The resident copies one invariant check gathers: a scratch each system
   owns and reuses, so a check allocates no table and no list once the
   scratch has grown.  [seq] is the gathering order and [src] numbers the
   source (cache, host pseudo-cache, guard) a copy came from. *)
type copy = {
  mutable who : string;
  mutable src : int;
  mutable seq : int;
  mutable addr : Addr.t;
  mutable cls : Host.cls;
  mutable data : Data.t;
}

type copies = { mutable all : copy array; mutable n : int; mutable last_who : string }

let fresh_copies () = { all = [||]; n = 0; last_who = "" }

let clear_copies c =
  c.n <- 0;
  c.last_who <- ""

let add_copy c who addr cls data =
  if c.n = Array.length c.all then
    c.all <-
      Array.append c.all
        (Array.init (max 16 c.n) (fun _ ->
             { who = ""; src = 0; seq = 0; addr = 0; cls = `S; data = 0 }));
  let src = if c.n = 0 then 0 else c.all.(c.n - 1).src + if who == c.last_who then 0 else 1 in
  let k = c.all.(c.n) in
  k.who <- who;
  k.src <- src;
  k.seq <- c.n;
  k.addr <- addr;
  k.cls <- cls;
  k.data <- data;
  c.last_who <- who;
  c.n <- c.n + 1

(* Group the copies by block: ascending address, and within a block the
   latest gathered first.  Insertion sort: check configurations hold a few
   dozen copies. *)
let sort_by_block c =
  let a = c.all in
  for i = 1 to c.n - 1 do
    let k = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && (a.(!j).addr > k.addr || (a.(!j).addr = k.addr && a.(!j).seq < k.seq)) do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- k
  done

(* SWMR, single-owner and the data-value invariant over every resident copy,
   block by block in ascending address order; the first violating block is
   reported.  [skip] masks addresses with an open host-side transaction
   (directory / L2 busy), whose copies are legitimately mid-transfer. *)
let swmr_and_value ~mem_read ~skip c =
  sort_by_block c;
  let a = c.all in
  let describe lo hi =
    String.concat ", "
      (List.init (hi - lo) (fun i ->
           let k = a.(lo + i) in
           Printf.sprintf "%s=%c/%d" k.who (class_char k.cls) k.data))
  in
  let check_block addr lo hi =
    let transient = ref false and exclusive = ref false and owners = ref 0 and owner = ref lo in
    for i = lo to hi - 1 do
      match a.(i).cls with
      | `T -> transient := true
      | `S -> ()
      | `E | `M ->
          exclusive := true;
          incr owners;
          owner := i
      | `O ->
          incr owners;
          owner := i
    done;
    if skip addr || !transient then None
    else if !exclusive && hi - lo > 1 then
      Some
        (Printf.sprintf "SWMR violated at block %d: %s" (Addr.to_int addr) (describe lo hi))
    else if !owners > 1 then
      Some
        (Printf.sprintf "multiple owners of block %d: %s" (Addr.to_int addr) (describe lo hi))
    else
      let expected =
        if !owners = 0 then Some (mem_read addr)
        else match a.(!owner).cls with `E -> None (* sole copy *) | _ -> Some a.(!owner).data
      in
      match expected with
      | None -> None
      | Some (v : Data.t) ->
          let rec stale i =
            if i >= hi then None
            else
              let k = a.(i) in
              if k.cls = `S && k.data <> v then
                Some
                  (Printf.sprintf
                     "data-value violated at block %d: %s holds %d, coherent value is %d"
                     (Addr.to_int addr) k.who k.data v)
              else stale (i + 1)
          in
          stale lo
  in
  let rec from lo =
    if lo >= c.n then None
    else begin
      let addr = a.(lo).addr in
      let hi = ref (lo + 1) in
      while !hi < c.n && a.(!hi).addr = addr do
        incr hi
      done;
      match check_block addr lo !hi with Some _ as v -> v | None -> from !hi
    end
  in
  from 0

(* Guard inclusivity: with a well-behaved accelerator (the checker's), every
   stable line it holds must be in the guard's full-state table, and a line
   writable at the accelerator must be tracked writable.  Cache by cache,
   the lowest violating block is reported. *)
let guard_inclusive ~core ~l1s =
  let violation l1 =
    let lowest = ref max_int and what = ref "" in
    A.L1_simple.check_each l1 (fun a st _ ->
        if Addr.to_int a < !lowest then
          match (st, Xg.Xg_core.check_tracked_state core a) with
          | `T, _ | (`S | `E | `M), Some (`E | `M) | `S, Some `S -> ()
          | _, None ->
              lowest := Addr.to_int a;
              what :=
                Printf.sprintf "guard inclusivity violated: accel holds block %d untracked"
                  (Addr.to_int a)
          | ((`E | `M) as st), Some `S ->
              lowest := Addr.to_int a;
              what :=
                Printf.sprintf "guard tracks block %d as S but accel holds %c" (Addr.to_int a)
                  (class_char st));
    if !lowest = max_int then None else Some !what
  in
  let rec from i =
    if i = Array.length l1s then None
    else match violation l1s.(i) with Some _ as v -> v | None -> from (i + 1)
  in
  if Xg.Xg_core.mode core = Xg.Xg_core.Full_state then from 0 else None

(* The first source holding a transient copy, at its lowest such block. *)
let no_transient_at_drain c =
  let first = ref None in
  for i = c.n - 1 downto 0 do
    let k = c.all.(i) in
    if k.cls = `T then
      match !first with
      | Some (f : copy) when f.src < k.src || (f.src = k.src && f.addr < k.addr) -> ()
      | _ -> first := Some k
  done;
  Option.map
    (fun k ->
      Printf.sprintf "drained with block %d still transient in %s" (Addr.to_int k.addr) k.who)
    !first

let first_of checks = List.find_map (fun f -> f ()) checks

(* A processor port that reaches a remote sequencer across a fixed-latency
   link in both directions: the host-side-cache organization (Figure 2b). *)
let remote_port engine ~latency (seq : Sequencer.t) =
  {
    Access.issue =
      (fun access ~on_done ->
        Engine.schedule engine ~delay:latency (fun () ->
            Sequencer.request seq access ~on_complete:(fun value ~latency:_ ->
                Engine.schedule engine ~delay:latency (fun () -> on_done value)));
        true);
  }

let xg_mode = function
  | Config.Full_state -> Xg.Xg_core.Full_state
  | Config.Transactional -> Xg.Xg_core.Transactional

let spec_ordering (spec : Topology.accel_spec) =
  if spec.Topology.link_jitter = 0 then
    Xguard_network.Network.Ordered { latency = spec.Topology.link_latency }
  else
    Xguard_network.Network.Unordered
      {
        min_latency = 1;
        max_latency = spec.Topology.link_latency + spec.Topology.link_jitter;
      }

(* Build guard [index] from its spec: its ordered (or jittered) link, the
   core, and the accelerator hierarchy on top.  All naming goes through
   [sfx id].  A spec without its own fault model inherits the config-level
   one; config-level scripts replay on every link, spec scripts only on
   theirs.  The fault seed folds in the guard index so independent links
   draw independent fault streams. *)
let build_guard (cfg : Config.t) ~engine ~rng ~registry ~perms ~os ~host_port
    ~attach_core ~attach ~index (spec : Topology.accel_spec) =
  let id = spec.Topology.id in
  let faults =
    match spec.Topology.faults with Some f -> Some f | None -> cfg.Config.link_faults
  in
  let fault_scripts = cfg.Config.link_fault_scripts @ spec.Topology.fault_scripts in
  (* Each accelerator gets its own OS permission table (guard 0 keeps the
     system-level [perms]).  This is load-bearing for isolation: quarantining
     a guard revokes every grant in *its* table, and a shared table would
     revoke the neighbors' pages too. *)
  let perms = if index = 0 then perms else Xg.Perm_table.create () in
  let link =
    Xg.Xg_iface.Link.create ~engine ~rng:(Rng.split rng) ~name:(sfx id "xg.link")
      ~ordering:(spec_ordering spec) ()
  in
  Xg.Xg_iface.Link.set_tracer link link_tracer;
  let o = Obs.get () in
  (* Only the guard link carries crossing traffic; the accelerator-internal
     network below never hosts span segments. *)
  if Option.is_some o.Obs.spans then Xg.Xg_iface.Link.mark_crossing link;
  (* Per-tenant metrics series ("xg" legacy, "xg.a0" in a topology): labeling
     the guard link turns on its per-guard latency hooks, so each tenant's
     e2e / invalidate histograms are SLO-judgeable on their own. *)
  if Option.is_some o.Obs.metrics then Xg.Xg_iface.Link.set_metrics_label link (sfx id "xg");
  let xg_link_node = Node.Registry.fresh registry (sfx id "xg.link_end") in
  let accel_link_node = Node.Registry.fresh registry (sfx id "accel.link_end") in
  let rate_limiter =
    match cfg.Config.rate_limit with
    | Some (tokens_per_cycle, burst) ->
        Some (Xg.Rate_limiter.create ~engine ~tokens_per_cycle ~burst ())
    | None -> None
  in
  let core =
    Xg.Xg_core.create ~engine ~name:(sfx id "xg") ~mode:(xg_mode spec.Topology.variant) ~link
      ~self:xg_link_node ~accel:accel_link_node ~host:host_port ~perms ~os
      ~timeout:cfg.Config.xg_timeout ?rate_limiter
      ~suppress_put_s_register:cfg.Config.suppress_put_s
      ~quarantine_after:cfg.Config.quarantine_after ?recovery:cfg.Config.recovery
      ~budgets:cfg.Config.budgets ()
  in
  attach_core core;
  (match o.Obs.spans with
  | Some sr ->
      let p = sfx id "xg" in
      Spans.add_gauge sr ~name:(p ^ ".link.in_flight") (fun () ->
          Xg.Xg_iface.Link.in_flight link);
      Spans.add_gauge sr ~name:(p ^ ".open_transactions") (fun () ->
          Xg.Xg_core.open_transactions core);
      Spans.add_gauge sr ~name:(p ^ ".tracked_blocks") (fun () -> Xg.Xg_core.tracked_blocks core);
      (* Recovery gauges only when the lifecycle is configured, so span output
         for legacy configs stays byte-identical. *)
      if cfg.Config.recovery <> None then begin
        Spans.add_gauge sr ~name:(p ^ ".rejoins") (fun () -> Xg.Xg_core.rejoins core);
        Spans.add_gauge sr ~name:(p ^ ".quarantines") (fun () -> Xg.Xg_core.quarantine_count core)
      end;
      if cfg.Config.budgets <> Xg.Xg_core.no_budgets then
        Spans.add_gauge sr ~name:(p ^ ".budget_trips") (fun () -> Xg.Xg_core.budget_trips core);
      if index = 0 then
        Spans.add_gauge sr ~name:"xg.perm_entries" (fun () -> Xg.Perm_table.entries perms)
  | None -> ());
  if faults <> None || fault_scripts <> [] then begin
    Xg.Xg_iface.Link.enable_reliability link ~retry_timeout:cfg.Config.link_retry_timeout
      ~max_retries:cfg.Config.link_max_retries ();
    (match faults with
    | Some f ->
        (* A standalone stream (not split from the system rng), so installing
           the fault model cannot perturb any component's randomness. *)
        let seed = (cfg.Config.seed * 1000003) + 77 + (131 * index) in
        Xg.Xg_iface.Link.set_faults link ~rng:(Rng.create ~seed) f
    | None -> ());
    List.iter (Xg.Xg_iface.Link.add_fault_script link) fault_scripts;
    Xg.Xg_iface.Link.set_fault_handler link
      ~on_fault:(fun () -> Xg.Xg_core.link_fault core)
      ~on_recover:(fun () -> Xg.Xg_core.link_recovered core);
    Xg.Xg_core.set_on_quarantine core (fun () -> Xg.Xg_iface.Link.kill link)
  end;
  (* Unattached, the accelerator side of the link stays unregistered (a
     fuzzer or fault injector takes its place). *)
  let accel_ports, accel_l1s, accel_l2, accel_internal =
    if not attach then ([||], [||], None, None)
    else if not spec.Topology.two_level then begin
      (* An uncached device's single-line buffer stands in for its cache, so
         every new block crosses the link and nothing stays resident. *)
      let sets, ways =
        if spec.Topology.cached then (cfg.Config.accel_sets, cfg.Config.accel_ways) else (1, 1)
      in
      let lower = A.Lower_port.on_link link ~self:accel_link_node ~peer:xg_link_node in
      let l1 =
        A.L1_simple.create ~engine ~name:(sfx id "accel.l1")
          ~flavor:A.L1_simple.Mesi ~sets ~ways ~lower ()
      in
      Xg.Xg_iface.Link.register link accel_link_node (fun ~src:_ msg ->
          A.L1_simple.deliver l1 msg);
      ([| A.L1_simple.cpu_port l1 |], [| l1 |], None, None)
    end
    else begin
      let internal =
        Xg.Xg_iface.Link.create ~engine ~rng:(Rng.split rng)
          ~name:(sfx id "accel.internal")
          ~ordering:(Xguard_network.Network.Ordered { latency = 2 })
          ()
      in
      Xg.Xg_iface.Link.set_tracer internal link_tracer;
      let l2_node = Node.Registry.fresh registry (sfx id "accel.l2") in
      let lower = A.Lower_port.on_link link ~self:accel_link_node ~peer:xg_link_node in
      let l2 =
        A.L2_shared.create ~engine ~name:(sfx id "accel.l2") ~internal
          ~node:l2_node ~lower ~sets:cfg.Config.accel_l2_sets
          ~ways:cfg.Config.accel_l2_ways ()
      in
      Xg.Xg_iface.Link.register link accel_link_node (fun ~src:_ msg ->
          A.L2_shared.deliver_from_below l2 msg);
      let l1s =
        Array.init spec.Topology.cores (fun i ->
            let name = sfx id ("accel.l1_" ^ string_of_int i) in
            let node = Node.Registry.fresh registry name in
            let lower = A.Lower_port.on_link internal ~self:node ~peer:l2_node in
            let l1 =
              A.L1_simple.create ~engine ~name ~flavor:A.L1_simple.Mesi
                ~sets:cfg.Config.accel_sets ~ways:cfg.Config.accel_ways ~lower ()
            in
            Xg.Xg_iface.Link.register internal node (fun ~src:_ msg ->
                A.L1_simple.deliver l1 msg);
            l1)
      in
      (Array.map A.L1_simple.cpu_port l1s, l1s, Some l2, Some internal)
    end
  in
  (* With a recovery policy, a Reset frame landing on the accelerator side is
     the device-level hot reset: the whole cache stack drops its contents
     before the guard re-admits it (Link.kill stays wired above — the reset
     handshake un-kills the link itself). *)
  if cfg.Config.recovery <> None then
    Xg.Xg_iface.Link.set_reset_handler link (fun () ->
        Array.iter A.L1_simple.flush accel_l1s;
        Option.iter A.L2_shared.flush accel_l2);
  {
    g_id = id;
    g_core = core;
    g_link = link;
    g_xg_node = xg_link_node;
    g_accel_node = accel_link_node;
    g_ports = accel_ports;
    g_l1s = accel_l1s;
    g_l2 = accel_l2;
    g_internal = accel_internal;
    g_perms = perms;
  }

(* ---- the host-parametric builder (host hooks: lib/harness/host.ml) ---- *)

module type HOST = Host.S

module Build (H : HOST) = struct
  let build ~attach_accel (cfg : Config.t) =
    let host = H.of_config cfg in
    let engine = H.engine host in
    let rng = H.rng host in
    let registry = H.registry host in
    let net = H.net host in
    let msg_text msg = Fp.to_string H.add_msg_text msg in
    H.Net.set_tracer net (fun msg -> (Addr.to_int (H.msg_addr msg), msg_text msg));
    let perms = Xg.Perm_table.create () in
    let os = Xg.Os_model.create ~policy:cfg.Config.os_policy () in
    (* Each guard paired with its host-side port, in spec order. *)
    let guards =
      List.mapi
        (fun i (spec : Topology.accel_spec) ->
          let p = H.add_port host (sfx spec.Topology.id "xg.port") in
          let g =
            build_guard cfg ~engine ~rng ~registry ~perms ~os ~host_port:(H.Port.host_port p)
              ~attach_core:(H.Port.attach_core p) ~attach:(attach_accel || i > 0) ~index:i spec
          in
          (g, p))
        (Config.guard_specs cfg)
    in
    let gonly = List.map fst guards in
    let plain_cache name =
      H.add_cache host name ~sets:cfg.Config.accel_sets ~ways:cfg.Config.accel_ways
    in
    let accel_ports =
      match (gonly, cfg.Config.org) with
      | [], Config.Accel_side -> [| plain_cache "accel.cache" |]
      | [], Config.Host_side ->
          let seq =
            Sequencer.create ~engine ~name:"hostside.seq" ~port:(plain_cache "hostside.cache")
              ~max_outstanding:16 ()
          in
          [| remote_port engine ~latency:cfg.Config.link_latency seq |]
      | gs, _ -> Array.concat (List.map (fun g -> g.g_ports) gs)
    in
    H.finalize host;
    let accel_l1s = Array.concat (List.map (fun g -> g.g_l1s) gonly) in
    let accel_cov =
      Array.to_list
        (Array.map (fun l1 -> (A.L1_simple.name l1, A.L1_simple.coverage l1)) accel_l1s)
    in
    let memory = H.memory host in
    let mem_read = Memory_model.read memory in
    let busy = H.busy host in
    (* Every resident copy: host caches and pseudo-caches, accelerator
       L1s, then the owner copies guard clusters hide. *)
    let copies = fresh_copies () in
    let add = add_copy copies in
    let gather () =
      clear_copies copies;
      H.copies host add;
      Array.iter (fun l1 -> A.L1_simple.check_each l1 (add (A.L1_simple.name l1))) accel_l1s;
      List.iter
        (fun (g, p) ->
          match H.hidden_owner host p g.g_core with
          | [] -> ()
          | entries ->
              let who = guard_label g "xg" in
              List.iter (fun (a, st, d) -> add who a st d) entries)
        guards;
      copies
    in
    let check_invariant () =
      match swmr_and_value ~mem_read ~skip:busy (gather ()) with
      | Some _ as v -> v
      | None -> (
          match List.find_map (fun g -> Xg.Xg_core.check_violation g.g_core) gonly with
          | Some _ as v -> v
          | None -> List.find_map (fun g -> guard_inclusive ~core:g.g_core ~l1s:g.g_l1s) gonly)
    in
    let check_quiescent_invariant () =
      let tracked g =
        if Xg.Xg_core.mode g.g_core = Xg.Xg_core.Full_state then
          Xg.Xg_core.check_tracked g.g_core
        else []
      in
      (* [who] owns blocks [owned] but the host records another owner *)
      let unrecorded ~nid ~who ~what owned =
        List.find_map
          (fun a ->
            if H.recorded_owner host a = Some nid then None
            else
              Some
                (Printf.sprintf "%s/%s disagree: %s owns block %d unrecorded" H.dir_name what
                   who (Addr.to_int a)))
          owned
      in
      first_of
        [
          (fun () -> H.open_work host);
          (fun () ->
            List.find_map
              (fun g ->
                if Xg.Xg_core.check_pending_slots g.g_core <> 0 then
                  Some "drained with open guard transactions"
                else None)
              gonly);
          (fun () -> no_transient_at_drain (gather ()));
          (* forward: every owned cache line is recorded against that cache *)
          (fun () ->
            List.find_map
              (fun (who, nid, ls) ->
                unrecorded ~nid ~who ~what:H.cache_name
                  (List.filter_map
                     (fun (a, st, _) -> match st with `E | `O | `M -> Some a | `S | `T -> None)
                     ls))
              (H.caches host));
          (* guard-owned blocks must be recorded against that guard's port *)
          (fun () ->
            List.find_map
              (fun (g, p) ->
                unrecorded ~nid:(Node.id (H.Port.node p)) ~who:(guard_label g "xg") ~what:"guard"
                  (List.filter_map
                     (fun (a, st, _) -> match st with `E | `M -> Some a | `S -> None)
                     (tracked g)))
              guards);
          (* reverse: every host ownership record points at a live holder *)
          (fun () -> H.check_reverse host (List.map (fun (g, p) -> (p, g.g_core)) guards));
        ]
    in
    let check_enable () =
      H.Net.enable_check_mode net ~addr_of:(fun m -> Addr.to_int (H.msg_addr m)) ();
      List.iter
        (fun (g, p) ->
          let port_ctrl = Node.id (H.Port.node p) in
          Xg.Xg_iface.Link.enable_check_mode g.g_link
            ~ctrl_of:(fun id -> if id = Node.id g.g_xg_node then port_ctrl else id)
            ();
          Xg.Xg_core.set_check_ctrl g.g_core port_ctrl;
          Array.iter (fun l1 -> A.L1_simple.set_check_ctrl l1 (Node.id g.g_accel_node)) g.g_l1s;
          Option.iter (fun il -> Xg.Xg_iface.Link.enable_check_mode il ()) g.g_internal)
        guards
    in
    let links g = g.g_link :: Option.to_list g.g_internal in
    let check_set_delay_chooser f =
      H.Net.set_delay_chooser net f;
      List.iter
        (fun g -> List.iter (fun l -> Xg.Xg_iface.Link.set_delay_chooser l f) (links g))
        gonly
    in
    let check_fingerprint buf =
      H.fingerprint host buf;
      List.iter
        (fun (g, p) ->
          H.Port.check_fingerprint p buf;
          Xg.Xg_core.check_fingerprint g.g_core buf;
          Array.iter (fun l1 -> A.L1_simple.check_fingerprint l1 buf) g.g_l1s)
        guards;
      H.Net.check_fingerprint net buf;
      List.iter
        (fun g -> List.iter (fun l -> Xg.Xg_iface.Link.check_fingerprint l buf) (links g))
        gonly;
      (* Guard 0's table *is* [perms]; extra guards append theirs in topology
         order.  Guard-less organizations keep the bare system table. *)
      (match gonly with
      | [] -> Xg.Perm_table.check_fingerprint perms buf
      | gs -> List.iter (fun g -> Xg.Perm_table.check_fingerprint g.g_perms buf) gs);
      Xg.Os_model.check_fingerprint os buf;
      List.iter
        (fun (a, (d : Data.t)) ->
          if d <> Data.initial a then begin
            Fp.key buf 'M' (Addr.to_int a);
            Fp.field_int buf d;
            Buffer.add_char buf ';'
          end)
        (Memory_model.touched memory);
      (* The pending-event horizon closes any window a component dump misses
         (e.g. a completion callback whose TBE is already freed).  Extra
         discrimination only ever splits states — it cannot merge two
         architecturally different ones. *)
      Engine.pending_summary engine (fun dt tag ->
          Fp.key buf 'e' dt;
          Fp.field_int buf tag;
          Buffer.add_char buf ';')
    in
    let check_accel_ctrls =
      match gonly with
      | [] -> Array.map (fun _ -> -1) accel_ports
      | gs ->
          Array.concat
            (List.map (fun g -> Array.map (fun _ -> Node.id g.g_accel_node) g.g_ports) gs)
    in
    let xg_groups f = List.map (fun g -> (guard_label g "xg", f g.g_core)) gonly in
    {
      config = cfg;
      engine;
      rng;
      memory;
      perms;
      os;
      cpu_ports = H.cpu_ports host;
      accel_ports;
      guards = Array.of_list gonly;
      shard_engines = [||];
      host_net_bytes = (fun () -> H.Net.bytes_sent net);
      host_net_messages = (fun () -> H.Net.messages_sent net);
      xg_port_to_host_bytes =
        (fun () ->
          List.fold_left (fun acc (_, p) -> acc + H.Net.bytes_from net (H.Port.node p)) 0 guards);
      link_bytes =
        (fun () ->
          List.fold_left (fun acc g -> acc + Xg.Xg_iface.Link.bytes_sent g.g_link) 0 gonly);
      set_host_monitor =
        (fun f ->
          H.Net.set_monitor net (fun ~src ~dst msg ->
              f ~src:(Node.name src) ~dst:(Node.name dst)
                ~addr:(Addr.to_int (H.msg_addr msg))
                ~text:(msg_text msg)));
      coverage_groups =
        (fun () -> H.coverage_groups host @ accel_cov @ xg_groups Xg.Xg_core.coverage);
      coverage_sets =
        (fun () ->
          H.coverage_sets host
          @ (match accel_cov with
            | [] -> []
            | _ -> [ ("accel.l1", A.L1_simple.coverage_space, List.map snd accel_cov) ])
          @ (match gonly with
            | [] -> []
            | gs ->
                [
                  ( "xg",
                    Xg.Xg_core.coverage_space,
                    List.map (fun g -> Xg.Xg_core.coverage g.g_core) gs );
                ])
          @ fault_coverage_sets ~guards:gonly ());
      stats_groups =
        (fun () ->
          H.stats_groups host @ xg_groups Xg.Xg_core.stats
          @ List.map (fun (g, p) -> (guard_label g "xg_port", H.Port.stats p)) guards);
      link_stats = fault_link_stats ~guards:gonly;
      quarantined = any_quarantined ~guards:gonly;
      check_enable;
      check_set_delay_chooser;
      check_fingerprint;
      check_invariant;
      check_quiescent_invariant;
      check_cpu_ctrls = H.cpu_ctrls host;
      check_accel_ctrls;
    }
end

module Hammer = Build (Hammer_system)
module Mesi = Build (Mesi_system)

(* The observer sampler's period (cycles).  Coarse enough to stay invisible
   in profiles, fine enough to show queue ramps. *)
let sampler_period = 500

(* [pdes] is ignored: xbench's topo4 passes it, until xbench v2. *)
let build ?(attach_accel = true) ?pdes:_ (cfg : Config.t) =
  let o = Obs.get () in
  Option.iter Spans.reset_gauges o.Obs.spans;
  Option.iter Metrics.reset_sources o.Obs.metrics;
  let t =
    match cfg.Config.host with
    | Config.Hammer -> Hammer.build ~attach_accel cfg
    | Config.Mesi -> Mesi.build ~attach_accel cfg
  in
  let t =
    match o.Obs.metrics with
    | None -> t
    | Some mr ->
        (* Metrics counter sources: every stats group the run would report,
           plus each guard's link-layer group (retransmissions live there —
           the watchdog's retry-storm rule needs their deltas).  Registration
           order fixes the stream's series order. *)
        List.iter (fun (name, g) -> Metrics.add_group mr ~name g) (t.stats_groups ());
        Array.iter
          (fun g ->
            Metrics.add_group mr ~name:(guard_label g "xg.link")
              (Xg.Xg_iface.Link.link_stats g.g_link))
          t.guards;
        if not (Metrics.watchdog_armed mr) then t
        else begin
          (* Bridge watchdog verdicts to the OS model's anomaly ledger and an
             obs.watchdog coverage matrix.  Both are pure observers: anomalies
             never feed policy, and the coverage set only exists on armed
             runs, so unarmed output is untouched. *)
          let grp = Xguard_stats.Counter.Group.create "obs.watchdog.cov" in
          let mat = Xguard_trace.Coverage.intern_matrix Watchdog.coverage_space grp in
          Metrics.set_watchdog_reporter mr (fun ~rule ~event ~detail:_ ->
              if event = 0 then Xg.Os_model.anomaly t.os Watchdog.rules.(rule);
              Xguard_trace.Coverage.hit mat ~state:rule ~event);
          let prev_sets = t.coverage_sets in
          {
            t with
            coverage_sets =
              (fun () ->
                prev_sets () @ [ ("obs.watchdog", Watchdog.coverage_space, [ grp ]) ]);
          }
        end
  in
  if Obs.sampled o then
    Engine.set_sampler t.engine ~period:sampler_period (fun now -> Metrics.tick o ~now);
  t
