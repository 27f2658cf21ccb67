module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Table = Xguard_stats.Table
module Coverage = Xguard_trace.Coverage
module Group = Xguard_stats.Counter.Group
module Xg = Xguard_xg
module W = Xguard_workload.Workload
module L1 = Xguard_accel.L1_simple

type report = { id : string; title : string; tables : Table.t list }

let xg_configs () = List.filter Config.uses_xg (Config.all_configurations ())

(* ---------- T1 ---------- *)

let t1_transition_table () =
  let module Spec = L1.Spec in
  let columns =
    "States"
    :: List.map Spec.event_to_string Spec.all_events
  in
  let table =
    Table.create ~title:"Table 1: accelerator L1 cache implementing the XG interface" ~columns
  in
  List.iter
    (fun state ->
      let cells =
        List.map
          (fun event ->
            match Spec.mesi state event with
            | Spec.Impossible -> "-"
            | Spec.Entry { action; next } ->
                if next = state then (if action = "-" then "." else action)
                else if action = "-" || action = "hit" then
                  Printf.sprintf "%s / %s" action (Spec.state_to_string next)
                else Printf.sprintf "%s / %s" action (Spec.state_to_string next))
          Spec.all_events
      in
      Table.add_row table (Spec.state_to_string state :: cells))
    Spec.all_states;
  { id = "t1"; title = "Table 1 (accelerator transition matrix)"; tables = [ table ] }

(* ---------- F1 ---------- *)

let f1_guarantees () =
  let table =
    Table.create ~title:"Figure 1: guarantee enforcement (detected / host stays live)"
      ~columns:
        [ "Scenario"; "hammer full"; "hammer trans"; "mesi full"; "mesi trans" ]
  in
  let cell outcome =
    Printf.sprintf "%s / %s"
      (if outcome.Fault_scenarios.detected then "detected" else "tolerated")
      (if outcome.Fault_scenarios.host_live then "live" else "WEDGED")
  in
  let configs =
    [
      Config.make Config.Hammer (Config.Xg_one_level Config.Full_state);
      Config.make Config.Hammer (Config.Xg_one_level Config.Transactional);
      Config.make Config.Mesi (Config.Xg_one_level Config.Full_state);
      Config.make Config.Mesi (Config.Xg_one_level Config.Transactional);
    ]
  in
  (* Every scenario run also surfaces its guard coverage; the merged XG
     matrices below show which (state x event) pairs the directed faults
     actually exercised, alongside the verdict table. *)
  let cov_order : string list ref = ref [] in
  let cov_tbl : (string, Coverage.space * Xguard_stats.Counter.Group.t list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let is_xg name = String.length name >= 2 && String.sub name 0 2 = "xg" in
  let note_coverage sets =
    List.iter
      (fun (name, space, groups) ->
        if is_xg name then
          match Hashtbl.find_opt cov_tbl name with
          | Some (_, acc) -> acc := !acc @ groups
          | None ->
              cov_order := name :: !cov_order;
              Hashtbl.add cov_tbl name (space, ref groups))
      sets
  in
  List.iter
    (fun scenario ->
      let cells =
        List.map
          (fun cfg ->
            let outcome = Fault_scenarios.run cfg scenario in
            note_coverage outcome.Fault_scenarios.coverage_sets;
            cell outcome)
          configs
      in
      Table.add_row table (Fault_scenarios.scenario_name scenario :: cells))
    Fault_scenarios.all_scenarios;
  let cov_tables =
    List.rev_map
      (fun name ->
        let space, groups = Hashtbl.find cov_tbl name in
        Coverage.to_table (Coverage.analyze space !groups))
      !cov_order
  in
  { id = "f1"; title = "Figure 1 (guarantees)"; tables = table :: cov_tables }

(* ---------- F2 ---------- *)

let f2_organizations ?(quick = false) () =
  let w = if quick then W.blocked ~tiles:8 () else W.blocked () in
  let table =
    Table.create
      ~title:"Figure 2: the four accelerator cache organizations, same kernel (blocked)"
      ~columns:[ "Organization"; "host"; "cycles"; "mean access latency"; "violations" ]
  in
  List.iter
    (fun host ->
      List.iter
        (fun org ->
          let r = Perf_runner.run (Config.make host org) w in
          Table.add_row table
            [
              Config.org_label org;
              Config.host_label host;
              Table.cell_int r.Perf_runner.cycles;
              Table.cell_float r.Perf_runner.mean_accel_latency;
              Table.cell_int r.Perf_runner.violations;
            ])
        [
          Config.Accel_side;
          Config.Host_side;
          Config.Xg_one_level Config.Transactional;
          Config.Xg_two_level Config.Transactional;
        ];
      Table.add_separator table)
    [ Config.Hammer; Config.Mesi ];
  { id = "f2"; title = "Figure 2 (organizations)"; tables = [ table ] }

(* ---------- E1 ---------- *)

let e1_stress ?(quick = false) () =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let ops = if quick then 200 else 600 in
  let table =
    Table.create ~title:"E1: random coherence stress (all 12 configurations)"
      ~columns:
        [ "Configuration"; "ops"; "data errors"; "deadlocks"; "violations"; "transitions seen" ]
  in
  List.iter
    (fun cfg ->
      let total_ops = ref 0 and errors = ref 0 and deadlocks = ref 0 and violations = ref 0 in
      let coverage = Hashtbl.create 64 in
      List.iter
        (fun seed ->
          let cfg = Config.stress_sized { cfg with Config.seed } in
          let sys = System.build cfg in
          let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
          let o =
            Random_tester.run ~engine:sys.System.engine
              ~rng:(Rng.create ~seed:(seed * 7 + 1))
              ~ports
              ~addresses:(Array.init 6 Addr.block)
              ~ops_per_core:ops ()
          in
          total_ops := !total_ops + o.Random_tester.ops_completed;
          errors := !errors + o.Random_tester.data_errors;
          if o.Random_tester.deadlocked then incr deadlocks;
          violations := !violations + Xg.Os_model.error_count sys.System.os;
          List.iter
            (fun (group_name, group) ->
              List.iter
                (fun (key, n) ->
                  if n > 0 then
                    (* Merge same-class controllers (cpu0/cpu1/l1_0...) *)
                    let cls =
                      match String.index_opt group_name '_' with
                      | Some i when String.length group_name > i -> String.sub group_name 0 i
                      | _ -> (
                          match String.index_opt group_name '0' with
                          | Some i -> String.sub group_name 0 i
                          | None -> group_name)
                    in
                    Hashtbl.replace coverage (cls ^ ":" ^ key) ())
                (Group.to_list group))
            (sys.System.coverage_groups ()))
        seeds;
      Table.add_row table
        [
          Config.name cfg;
          Table.cell_int !total_ops;
          Table.cell_int !errors;
          Table.cell_int !deadlocks;
          Table.cell_int !violations;
          Table.cell_int (Hashtbl.length coverage);
        ])
    (Config.all_configurations ());
  { id = "e1"; title = "E1 (protocol stress test)"; tables = [ table ] }

(* ---------- E2 ---------- *)

let e2_fuzz ?(quick = false) () =
  let cpu_ops = if quick then 150 else 300 in
  let table =
    Table.create ~title:"E2: fuzzing the guard with a pathological accelerator"
      ~columns:
        [
          "Configuration";
          "chaos msgs";
          "cpu ops";
          "crashed";
          "deadlocked";
          "violations";
          "timeouts";
        ]
  in
  let row cfg label o =
    Table.add_row table
      [
        label;
        Table.cell_int o.Fuzz_tester.chaos_messages;
        Printf.sprintf "%d/%d" o.Fuzz_tester.cpu_ops_completed o.Fuzz_tester.cpu_ops_expected;
        (match o.Fuzz_tester.crashed with Some _ -> "CRASH" | None -> "no");
        (if o.Fuzz_tester.deadlocked then "DEADLOCK" else "no");
        Table.cell_int o.Fuzz_tester.violations;
        Table.cell_int
          (try List.assoc Xg.Os_model.Response_timeout o.Fuzz_tester.violations_by_kind
           with Not_found -> 0);
      ];
    ignore cfg
  in
  List.iter
    (fun cfg -> row cfg (Config.name cfg) (Fuzz_tester.run cfg ~cpu_ops ()))
    (xg_configs ());
  Table.add_separator table;
  (* A mute accelerator (never answers an Invalidate) forces the G2c timeout
     path; a short deadline keeps the run fast. *)
  List.iter
    (fun (host, variant) ->
      let cfg = Config.make host (Config.Xg_one_level variant) in
      let cfg = { cfg with Config.xg_timeout = 400 } in
      row cfg
        (Config.name cfg ^ " (mute)")
        (Fuzz_tester.run cfg ~pool:Fuzz_tester.Shared_ro ~respond_probability:0.0
           ~requests_only:true ~cpu_ops ()))
    [
      (Config.Hammer, Config.Full_state);
      (Config.Hammer, Config.Transactional);
      (Config.Mesi, Config.Full_state);
      (Config.Mesi, Config.Transactional);
    ];
  { id = "e2"; title = "E2 (fuzz safety)"; tables = [ table ] }

(* ---------- E3 ---------- *)

let e3_performance ?(quick = false) () =
  let workloads =
    if quick then [ W.blocked ~tiles:12 (); W.graph ~nodes:64 ~steps:600 () ] else W.all ()
  in
  let orgs =
    [
      Config.Accel_side;
      Config.Host_side;
      Config.Xg_one_level Config.Full_state;
      Config.Xg_one_level Config.Transactional;
      Config.Xg_two_level Config.Full_state;
      Config.Xg_two_level Config.Transactional;
    ]
  in
  let tables =
    List.map
      (fun host ->
        let table =
          Table.create
            ~title:
              (Printf.sprintf
                 "E3 (%s host): runtime normalized to the unsafe accelerator-side cache"
                 (Config.host_label host))
            ~columns:("Configuration" :: List.map (fun w -> w.W.name) workloads)
        in
        let results =
          List.map
            (fun org ->
              (org, List.map (fun w -> Perf_runner.run (Config.make host org) w) workloads))
            orgs
        in
        let baseline =
          match results with (_, rs) :: _ -> List.map (fun r -> r.Perf_runner.cycles) rs | [] -> []
        in
        List.iter
          (fun (org, rs) ->
            let cells =
              List.map2
                (fun r base ->
                  Table.cell_ratio (float_of_int r.Perf_runner.cycles /. float_of_int base))
                rs baseline
            in
            Table.add_row table (Config.org_label org :: cells))
          results;
        table)
      [ Config.Hammer; Config.Mesi ]
  in
  { id = "e3"; title = "E3 (performance)"; tables }

(* ---------- E4 ---------- *)

let e4_puts_overhead ?(quick = false) () =
  let w = if quick then W.shared_sweep ~length:256 () else W.shared_sweep () in
  let table =
    Table.create ~title:"E4: unnecessary PutS traffic (paper: 1-4% of XG-to-host bandwidth)"
      ~columns:
        [
          "Configuration";
          "suppress reg";
          "PutS to host";
          "PutS suppressed";
          "XG-to-host bytes";
          "PutS share of XG-to-host bw";
        ]
  in
  let puts_bytes n = n * Xguard_network.Network.control_size in
  List.iter
    (fun (host, org) ->
      List.iter
        (fun suppress ->
          let cfg = { (Config.make host org) with Config.suppress_put_s = suppress } in
          let r = Perf_runner.run cfg w in
          let share =
            if r.Perf_runner.xg_to_host_bytes = 0 then 0.0
            else
              float_of_int (puts_bytes r.Perf_runner.put_s_messages)
              /. float_of_int r.Perf_runner.xg_to_host_bytes
          in
          Table.add_row table
            [
              Config.name cfg;
              (if suppress then "on" else "off");
              Table.cell_int r.Perf_runner.put_s_messages;
              Table.cell_int r.Perf_runner.put_s_suppressed;
              Table.cell_int r.Perf_runner.xg_to_host_bytes;
              Table.cell_pct share;
            ])
        [ false; true ])
    [
      (Config.Hammer, Config.Xg_one_level Config.Transactional);
      (Config.Hammer, Config.Xg_two_level Config.Transactional);
      (Config.Mesi, Config.Xg_one_level Config.Transactional);
    ];
  { id = "e4"; title = "E4 (PutS overhead)"; tables = [ table ] }

(* ---------- E5 ---------- *)

let e5_storage ?(quick = false) () =
  let table =
    Table.create ~title:"E5: guard storage, Full-State vs Transactional (measured peak)"
      ~columns:
        [ "Accel cache"; "blocks"; "full-state peak"; "transactional peak"; "ratio" ]
  in
  let sizes = if quick then [ (16, 4) ] else [ (8, 4); (16, 4); (32, 4); (64, 8) ] in
  List.iter
    (fun (sets, ways) ->
      let measure variant =
        let base = { Config.default with Config.accel_sets = sets; Config.accel_ways = ways } in
        let cfg = Config.make ~base Config.Hammer (Config.Xg_one_level variant) in
        let sys = System.build cfg in
        let seq =
          Sequencer.create ~engine:sys.System.engine ~name:"e5"
            ~port:sys.System.accel_ports.(0) ()
        in
        let blocks = 4 * sets * ways in
        for i = 0 to blocks - 1 do
          Sequencer.request seq
            (Access.store (Addr.block i) (Data.token i))
            ~on_complete:(fun _ ~latency:_ -> ())
        done;
        ignore (Engine.run sys.System.engine);
        Xg.Xg_core.peak_storage_bits sys.System.guards.(0).System.g_core
      in
      let full = measure Config.Full_state in
      let trans = measure Config.Transactional in
      Table.add_row table
        [
          Printf.sprintf "%dx%d" sets ways;
          Table.cell_int (sets * ways);
          Printf.sprintf "%d bits (%.1f KB)" full (float_of_int full /. 8192.0);
          Printf.sprintf "%d bits (%.2f KB)" trans (float_of_int trans /. 8192.0);
          Table.cell_ratio (float_of_int full /. float_of_int (max trans 1));
        ])
    sizes;
  (* The paper's analytic example: 256 kB accelerator cache, 64 B blocks,
     "this storage is around 16 kB" of tags. *)
  let analytic =
    Table.create ~title:"E5 (analytic, paper's example): Full-State storage for a 256 kB cache"
      ~columns:[ "Quantity"; "Value" ]
  in
  let blocks = 256 * 1024 / 64 in
  let tag_bits = 34 and state_bits = 2 in
  let tag_bytes = blocks * tag_bits / 8 in
  let full_bytes = blocks * (tag_bits + state_bits) / 8 in
  Table.add_row analytic [ "accelerator cache"; "256 kB, 64 B blocks" ];
  Table.add_row analytic [ "tracked blocks"; Table.cell_int blocks ];
  Table.add_row analytic
    [ "tag storage"; Printf.sprintf "%.1f kB (paper: ~16 kB)" (float_of_int tag_bytes /. 1024.) ];
  Table.add_row analytic
    [ "tags + state"; Printf.sprintf "%.1f kB" (float_of_int full_bytes /. 1024.) ];
  { id = "e5"; title = "E5 (storage)"; tables = [ table; analytic ] }

(* ---------- E6 ---------- *)

let e6_timeout ?(quick = false) () =
  let timeouts = if quick then [ 500; 4000 ] else [ 250; 500; 1000; 2000; 4000 ] in
  let table =
    Table.create
      ~title:
        "E6: CPU request latency with a mute accelerator owner (bounded by the guard timeout)"
      ~columns:[ "XG timeout"; "cpu latency (mute accel)"; "violations"; "host live" ]
  in
  List.iter
    (fun timeout ->
      let cfg = Config.make Config.Hammer (Config.Xg_one_level Config.Full_state) in
      let cfg = { cfg with Config.xg_timeout = timeout } in
      let sys = System.build ~attach_accel:false cfg in
      let g0 = sys.System.guards.(0) in
      let link = g0.System.g_link in
      let self = g0.System.g_accel_node in
      let xgn = g0.System.g_xg_node in
      let send msg = Xg.Xg_iface.Link.send link ~src:self ~dst:xgn ~size:8 msg in
      (* The accelerator acquires M, then goes mute. *)
      Xg.Xg_iface.Link.register link self (fun ~src:_ _ -> ());
      send (Xg.Xg_iface.To_xg_req { addr = Addr.block 0; req = Xg.Xg_iface.Get_m });
      ignore (Engine.run sys.System.engine);
      let start = Engine.now sys.System.engine in
      let done_at = ref 0 in
      let port = sys.System.cpu_ports.(0) in
      ignore
        (port.Access.issue
           (Access.store (Addr.block 0) (Data.token 9))
           ~on_done:(fun _ -> done_at := Engine.now sys.System.engine));
      ignore (Engine.run sys.System.engine);
      let live = !done_at > 0 in
      Table.add_row table
        [
          Table.cell_int timeout;
          (if live then Table.cell_int (!done_at - start) else "never");
          Table.cell_int (Xg.Os_model.error_count sys.System.os);
          (if live then "yes" else "NO");
        ])
    timeouts;
  { id = "e6"; title = "E6 (timeout recovery)"; tables = [ table ] }

(* ---------- E7 ---------- *)

let e7_rate_limit ?(quick = false) () =
  let steps = if quick then 300 else 800 in
  (* A latency-sensitive CPU loop, measured while the accelerator floods the
     host with (legitimate) requests. *)
  let measure ~flood ~limited =
    (* A finite directory pipeline is the shared resource the flood consumes
       (paper: "consuming bandwidth, directory entries, or other resources"). *)
    let base = { Config.default with Config.dir_occupancy = 6 } in
    let base =
      if limited then { base with Config.rate_limit = Some (0.02, 4) } else base
    in
    let cfg = Config.make ~base Config.Hammer (Config.Xg_one_level Config.Transactional) in
    let sys = System.build cfg in
    let cpu_seq =
      Sequencer.create ~engine:sys.System.engine ~name:"victim"
        ~port:sys.System.cpu_ports.(0) ()
    in
    let rng = Rng.create ~seed:9 in
    (* CPU pointer-chases its private region. *)
    let remaining = ref steps in
    let rec next () =
      if !remaining > 0 then begin
        decr remaining;
        Sequencer.request cpu_seq
          (Access.load (Addr.block (2048 + Rng.int rng 64)))
          ~on_complete:(fun _ ~latency:_ -> next ())
      end
    in
    next ();
    if flood then begin
      let accel_seq =
        Sequencer.create ~engine:sys.System.engine ~name:"flood"
          ~port:sys.System.accel_ports.(0) ~max_outstanding:16 ()
      in
      (* An open-ended stream of distinct-address reads at line rate. *)
      let issued = ref 0 in
      let rec flood_more () =
        if !remaining > 0 && !issued < 1_000_000 then begin
          incr issued;
          Sequencer.request accel_seq
            (Access.load (Addr.block (!issued mod 4096)))
            ~on_complete:(fun _ ~latency:_ -> flood_more ())
        end
      in
      for _ = 1 to 16 do
        flood_more ()
      done
    end;
    ignore (Engine.run ~max_events:100_000_000 sys.System.engine);
    Xguard_stats.Histogram.mean (Sequencer.latency cpu_seq)
  in
  let table =
    Table.create ~title:"E7: host process latency under an accelerator request flood"
      ~columns:[ "Scenario"; "cpu mean latency"; "slowdown" ]
  in
  let alone = measure ~flood:false ~limited:false in
  let flooded = measure ~flood:true ~limited:false in
  let protected_ = measure ~flood:true ~limited:true in
  let row name v =
    Table.add_row table [ name; Table.cell_float v; Table.cell_ratio (v /. alone) ]
  in
  row "no accelerator traffic" alone;
  row "flood, no rate limit" flooded;
  row "flood, rate limit 0.02 req/cycle" protected_;
  { id = "e7"; title = "E7 (rate limiting)"; tables = [ table ] }

(* ---------- E8 ---------- *)

let e8_block_merge () =
  let table =
    Table.create ~title:"E8: block-size translation (merge/split at the guard)"
      ~columns:
        [ "accel:host block ratio"; "accel ops"; "host transactions"; "amplification"; "data ok" ]
  in
  List.iter
    (fun ratio ->
      let engine = Engine.create () in
      let memory = Memory_model.create () in
      let backing =
        {
          Xg.Block_merge.get =
            (fun addr ~excl:_ ~on_grant ->
              Engine.schedule engine ~delay:10 (fun () -> on_grant (Memory_model.read memory addr)));
          Xg.Block_merge.put = (fun addr data -> Memory_model.write memory addr data);
        }
      in
      let bm = Xg.Block_merge.create ~engine ~ratio ~backing () in
      let lines = 64 in
      let ok = ref true in
      (* Write every line through the merge layer, then read back. *)
      for line = 0 to lines - 1 do
        Xg.Block_merge.get bm ~line ~excl:true ~on_grant:(fun _ ->
            Xg.Block_merge.put bm ~line
              (Array.init ratio (fun i -> Data.token ((line * 100) + i))))
      done;
      ignore (Engine.run engine);
      for line = 0 to lines - 1 do
        Xg.Block_merge.get bm ~line ~excl:false ~on_grant:(fun g ->
            match g with
            | Xg.Block_merge.Merged_s parts | Xg.Block_merge.Merged_e parts
            | Xg.Block_merge.Merged_m parts ->
                Array.iteri
                  (fun i d -> if not (Data.equal d (Data.token ((line * 100) + i))) then ok := false)
                  parts)
      done;
      ignore (Engine.run engine);
      let accel_ops = 3 * lines in
      let host = Xg.Block_merge.host_transactions bm in
      Table.add_row table
        [
          Printf.sprintf "%d:1" ratio;
          Table.cell_int accel_ops;
          Table.cell_int host;
          Table.cell_ratio (float_of_int host /. float_of_int accel_ops);
          (if !ok then "yes" else "NO");
        ])
    [ 1; 2; 4; 8 ];
  { id = "e8"; title = "E8 (block-size translation)"; tables = [ table ] }

(* ---------- A1 ---------- *)

let a1_link_ordering ?(quick = false) () =
  let seeds = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let table =
    Table.create
      ~title:"A1: the ordered-link requirement is load-bearing (unordered link misbehaves)"
      ~columns:[ "Link"; "runs"; "data errors"; "deadlocks"; "violations"; "crashes" ]
  in
  List.iter
    (fun ordered ->
      let errors = ref 0 and deadlocks = ref 0 and violations = ref 0 and crashes = ref 0 in
      List.iter
        (fun seed ->
          let base = { Config.default with Config.seed = seed; Config.link_ordered = ordered } in
          let cfg =
            Config.stress_sized
              (Config.make ~base Config.Hammer (Config.Xg_one_level Config.Full_state))
          in
          try
            let sys = System.build cfg in
            let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
            let o =
              Random_tester.run ~engine:sys.System.engine
                ~rng:(Rng.create ~seed:(seed * 7 + 1))
                ~ports
                ~addresses:(Array.init 6 Addr.block)
                ~ops_per_core:300 ()
            in
            errors := !errors + o.Random_tester.data_errors;
            if o.Random_tester.deadlocked then incr deadlocks;
            violations := !violations + Xg.Os_model.error_count sys.System.os
          with _ -> incr crashes)
        seeds;
      Table.add_row table
        [
          (if ordered then "ordered (required)" else "unordered (ablated)");
          Table.cell_int (List.length seeds);
          Table.cell_int !errors;
          Table.cell_int !deadlocks;
          Table.cell_int !violations;
          Table.cell_int !crashes;
        ])
    [ true; false ];
  { id = "a1"; title = "A1 (link ordering ablation)"; tables = [ table ] }

(* ---------- A2 ---------- *)

let a2_snoop_filtering ?(quick = false) () =
  let sweep = if quick then W.shared_sweep ~length:128 () else W.shared_sweep () in
  let pc =
    if quick then W.producer_consumer ~buffer_blocks:16 ~rounds:12 ()
    else W.producer_consumer ()
  in
  let table =
    Table.create
      ~title:"A2: snoops the guard answers without an accelerator round-trip"
      ~columns:
        [ "Configuration"; "workload"; "fast-path answers"; "round-trips"; "fast-path share" ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun cfg ->
          let r = Perf_runner.run cfg w in
          let fast = r.Perf_runner.snoop_fast_path and slow = r.Perf_runner.snoop_roundtrip in
          Table.add_row table
            [
              Config.name cfg;
              w.W.name;
              Table.cell_int fast;
              Table.cell_int slow;
              (if fast + slow = 0 then "-"
               else Table.cell_pct (float_of_int fast /. float_of_int (fast + slow)));
            ])
        [
          Config.make Config.Hammer (Config.Xg_one_level Config.Full_state);
          Config.make Config.Hammer (Config.Xg_one_level Config.Transactional);
          Config.make Config.Mesi (Config.Xg_one_level Config.Full_state);
          Config.make Config.Mesi (Config.Xg_one_level Config.Transactional);
        ];
      Table.add_separator table)
    [ sweep; pc ];
  { id = "a2"; title = "A2 (snoop filtering)"; tables = [ table ] }

(* ---------- E9 ---------- *)

type isolation_outcome = {
  iso_quarantined : bool;
  iso_baseline_cycles : int;
  iso_faulted_cycles : int;
  iso_neighbor_ops : int;
  iso_data_errors : int;
  iso_deadlocked : bool;
  iso_slowdown : float;
  iso_rejoins : int;
      (** completed reset handshakes on the victim guard (always 0 without a
          recovery policy) *)
}

(* The N=3 mixed cached/uncached topology used by both E9b and the isolation
   regression in test/test_safety.ml.  [a0] is the victim; [nic0] and [dsp0]
   are the neighbors whose throughput must survive its quarantine. *)
let isolation_topology () =
  match
    Topology.of_string
      "hammer:shards=2;a0=trans,cached;nic0=full,uncached,lat=12;dsp0=trans,cached,lat=6"
  with
  | Ok t -> t
  | Error e -> invalid_arg e

let measure_isolation ?(ops = 250) ?(seed = 1) ?recovery () =
  let module Net = Xguard_network.Network in
  let module Xgi = Xg.Xg_iface in
  let victim_block = Addr.block 100 (* outside the tester's address pool *) in
  let run ~kill =
    let topo = isolation_topology () in
    let topo =
      (* Reliability layer on for the victim's link (zero probabilistic
         injection — only the scripted wire cut below can fault). *)
      {
        topo with
        Topology.accels =
          List.mapi
            (fun i a ->
              if i = 0 then { a with Topology.faults = Some Net.Fault.zero }
              else a)
            topo.Topology.accels;
      }
    in
    let cfg =
      {
        (Config.of_topology topo) with
        Config.seed;
        link_retry_timeout = 16;
        link_max_retries = 2;
        quarantine_after = 2;
        recovery;
      }
    in
    (* Guard 0 stays bare; a minimal scripted endpoint on its link
       acknowledges invalidations while the wire is up. *)
    let sys = System.build ~attach_accel:false cfg in
    let g0 = sys.System.guards.(0) in
    let link = g0.System.g_link in
    let self = g0.System.g_accel_node in
    let xg = g0.System.g_xg_node in
    let send msg =
      Xgi.Link.send link ~src:self ~dst:xg ~size:(Xgi.msg_size msg) msg
    in
    Xgi.Link.register link self (fun ~src:_ msg ->
        match msg with
        | Xgi.To_accel_req { addr; req = Xgi.Invalidate } ->
            send (Xgi.To_xg_resp { addr; resp = Xgi.Inv_ack })
        | _ -> ());
    if kill then begin
      (* The victim legitimately owns a block, then its wire goes dark.  A
         CPU store to that block forces the guard's Invalidate onto the dead
         link; the retry ladder runs dry and the guard quarantines — all
         before the throughput measurement starts. *)
      send (Xgi.To_xg_req { addr = victim_block; req = Xgi.Get_m });
      ignore (Engine.run sys.System.engine);
      Xgi.Link.cut_wire link;
      let stored = ref false in
      let rec store tries =
        if tries > 500 || !stored then ()
        else if
          sys.System.cpu_ports.(0).Access.issue
            (Access.store victim_block (Data.token 1)) ~on_done:(fun _ ->
              stored := true)
        then ignore (Engine.run sys.System.engine)
        else begin
          ignore (Engine.run sys.System.engine);
          store (tries + 1)
        end
      in
      store 0;
      assert !stored
    end;
    (* Drive the CPUs and the neighbor guards' devices; the victim's port
       stays idle in both runs so the issued work is identical. *)
    let neighbor_ports =
      Array.concat
        (List.tl
           (List.map (fun g -> g.System.g_ports) (Array.to_list sys.System.guards)))
    in
    let ports = Array.append sys.System.cpu_ports neighbor_ports in
    let start = Engine.now sys.System.engine in
    let o =
      Random_tester.run ~engine:sys.System.engine
        ~rng:(Rng.create ~seed:(seed * 7 + 1))
        ~ports
        ~addresses:(Array.init 6 Addr.block)
        ~ops_per_core:ops ()
    in
    let neighbor_ops =
      let n_cpus = Array.length sys.System.cpu_ports in
      Array.fold_left ( + ) 0
        (Array.sub o.Random_tester.ops_per_port n_cpus
           (Array.length o.Random_tester.ops_per_port - n_cpus))
    in
    let rejoins =
      Array.fold_left
        (fun acc g -> acc + Xg.Xg_core.rejoins g.System.g_core)
        0 sys.System.guards
    in
    (o, o.Random_tester.cycles - start, neighbor_ops, sys.System.quarantined (), rejoins)
  in
  let base, base_cycles, _, _, _ = run ~kill:false in
  let faulted, faulted_cycles, neighbor_ops, quarantined, rejoins = run ~kill:true in
  {
    iso_quarantined = quarantined;
    iso_baseline_cycles = base_cycles;
    iso_faulted_cycles = faulted_cycles;
    iso_neighbor_ops = neighbor_ops;
    iso_data_errors =
      base.Random_tester.data_errors + faulted.Random_tester.data_errors;
    iso_deadlocked =
      base.Random_tester.deadlocked || faulted.Random_tester.deadlocked;
    iso_slowdown = float_of_int faulted_cycles /. float_of_int (max 1 base_cycles);
    iso_rejoins = rejoins;
  }

let e9_topology ?(quick = false) () =
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let ops = if quick then 150 else 400 in
  let sweep =
    Table.create
      ~title:"E9a: symmetric topology size sweep (Hammer host, 2 directory shards)"
      ~columns:
        [
          "Topology";
          "guards";
          "driven ports";
          "ops";
          "data errors";
          "deadlocks";
          "violations";
          "cycles";
        ]
  in
  List.iter
    (fun n ->
      let topo = Topology.symmetric ~shards:2 n in
      let total_ops = ref 0
      and errors = ref 0
      and deadlocks = ref 0
      and violations = ref 0
      and cycles = ref 0
      and nports = ref 0 in
      List.iter
        (fun seed ->
          let cfg = Config.stress_sized { (Config.of_topology topo) with Config.seed } in
          let sys = System.build cfg in
          let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
          nports := Array.length ports;
          let o =
            Random_tester.run ~engine:sys.System.engine
              ~rng:(Rng.create ~seed:(seed * 7 + 1))
              ~ports
              ~addresses:(Array.init 6 Addr.block)
              ~ops_per_core:ops ()
          in
          total_ops := !total_ops + o.Random_tester.ops_completed;
          errors := !errors + o.Random_tester.data_errors;
          if o.Random_tester.deadlocked then incr deadlocks;
          violations := !violations + Xg.Os_model.error_count sys.System.os;
          cycles := !cycles + o.Random_tester.cycles)
        seeds;
      Table.add_row sweep
        [
          Topology.name topo;
          Table.cell_int n;
          Table.cell_int !nports;
          Table.cell_int !total_ops;
          Table.cell_int !errors;
          Table.cell_int !deadlocks;
          Table.cell_int !violations;
          Table.cell_int !cycles;
        ])
    [ 1; 2; 3; 4 ];
  let iso = measure_isolation ~ops:(if quick then 120 else 250) () in
  let isolation =
    Table.create
      ~title:
        "E9b: neighbor throughput with guard a0 quarantined vs healthy (N=3 mixed topology)"
      ~columns:[ "metric"; "value" ]
  in
  List.iter (Table.add_row isolation)
    [
      [ "victim quarantined"; (if iso.iso_quarantined then "yes" else "NO") ];
      [ "neighbor device ops completed"; Table.cell_int iso.iso_neighbor_ops ];
      [ "baseline cycles (a0 healthy, idle)"; Table.cell_int iso.iso_baseline_cycles ];
      [ "cycles with a0 quarantined"; Table.cell_int iso.iso_faulted_cycles ];
      [ "slowdown"; Printf.sprintf "%.3fx" iso.iso_slowdown ];
      [ "data errors"; Table.cell_int iso.iso_data_errors ];
      [ "deadlocked"; (if iso.iso_deadlocked then "YES" else "no") ];
    ];
  { id = "e9"; title = "E9 (multi-guard topologies)"; tables = [ sweep; isolation ] }

(* ---------- E10 ---------- *)

type recovery_point = {
  rp_availability : float;  (** 1 - down_cycles / total cycles, guard 0 *)
  rp_mttr : float option;  (** down cycles per completed repair; None if none *)
  rp_quarantines : int;
  rp_rejoins : int;
  rp_permakilled : bool;
  rp_ops : int;
  rp_neighbor_ops : int;
  rp_data_errors : int;
  rp_deadlocked : bool;
  rp_cycles : int;  (** measured window (tester start to quiescence) *)
}

(* Availability measurement under a recovery policy: guard 0 runs bare with a
   well-behaved scripted sharer on a reliability-layer link.  Faults come from
   either a probabilistic [drop] rate (retry-ladder exhaustion) or scripted
   wire [cuts] at fixed cycles; the recovery policy resets the link and
   re-admits the script each time.  The script keeps a held-set so it always
   answers Invalidate with the protocol-correct response for its grant, never
   double-requests, and — mirroring a real hierarchy's reset flush — forgets
   everything when the guard resets the link. *)
let measure_recovery ~topo ~drop ~cuts ~ops ~ticks ~seed () =
  let module Net = Xguard_network.Network in
  let module Xgi = Xg.Xg_iface in
  let topo =
    {
      topo with
      Topology.accels =
        List.mapi
          (fun i a ->
            if i = 0 then
              { a with Topology.faults = Some { Net.Fault.zero with Net.Fault.drop } }
            else a)
          topo.Topology.accels;
    }
  in
  let cfg =
    {
      (Config.of_topology topo) with
      Config.seed;
      link_retry_timeout = 16;
      link_max_retries = 2;
      quarantine_after = 2;
      recovery =
        Some
          (Xg.Xg_core.make_recovery ~reset_delay:150 ~reset_timeout:32
             ~reset_attempts:6 ~probation_window:300 ~probation_rate:0.5
             ~probation_burst:4 ~probation_quarantine_after:2 ~permakill_after:64
             ());
    }
  in
  let sys = System.build ~attach_accel:false cfg in
  let g0 = sys.System.guards.(0) in
  let link = g0.System.g_link in
  let self = g0.System.g_accel_node in
  let xg = g0.System.g_xg_node in
  let send msg =
    Xgi.Link.send link ~src:self ~dst:xg ~size:(Xgi.msg_size msg) msg
  in
  let pool = Array.init 6 Addr.block in
  (* addr -> last grant; entries are provisional ([None]) from request time so
     a pending block is never re-requested (G1b). *)
  let held : (Addr.t, Xgi.xg_response option) Hashtbl.t = Hashtbl.create 16 in
  Xgi.Link.register link self (fun ~src:_ msg ->
      match msg with
      | Xgi.To_accel_req { addr; req = Xgi.Invalidate } ->
          let resp =
            match Hashtbl.find_opt held addr with
            | Some (Some (Xgi.Data_e d)) -> Xgi.Clean_wb d
            | Some (Some (Xgi.Data_m d)) -> Xgi.Dirty_wb d
            | _ -> Xgi.Inv_ack
          in
          Hashtbl.remove held addr;
          send (Xgi.To_xg_resp { addr; resp })
      | Xgi.To_accel_resp
          { addr; resp = (Xgi.Data_s _ | Xgi.Data_e _ | Xgi.Data_m _) as resp } ->
          Hashtbl.replace held addr (Some resp)
      | _ -> ());
  (* The guard's reset handler flushes a real hierarchy; the scripted
     sharer's equivalent is dropping everything it held (including stuck
     provisional entries whose requests died in quarantine). *)
  Xgi.Link.set_reset_handler link (fun () -> Hashtbl.reset held);
  let rec tick i =
    if i < ticks then begin
      (match Array.find_opt (fun a -> not (Hashtbl.mem held a)) pool with
      | Some a ->
          Hashtbl.replace held a None;
          send (Xgi.To_xg_req { addr = a; req = Xgi.Get_s })
      | None -> ());
      Engine.schedule sys.System.engine ~delay:30 (fun () -> tick (i + 1))
    end
  in
  tick 0;
  List.iter
    (fun at ->
      Engine.schedule sys.System.engine ~delay:at (fun () ->
          Xgi.Link.cut_wire link))
    cuts;
  let neighbor_ports =
    Array.concat
      (List.tl
         (List.map (fun g -> g.System.g_ports) (Array.to_list sys.System.guards)))
  in
  let ports = Array.append sys.System.cpu_ports neighbor_ports in
  let start = Engine.now sys.System.engine in
  let o =
    Random_tester.run ~engine:sys.System.engine
      ~rng:(Rng.create ~seed:(seed * 7 + 1))
      ~ports ~addresses:pool ~ops_per_core:ops ()
  in
  let core0 = sys.System.guards.(0).System.g_core in
  let now = Engine.now sys.System.engine in
  let down = Xg.Xg_core.down_cycles core0 ~now in
  let rejoins = Xg.Xg_core.rejoins core0 in
  let neighbor_ops =
    let n_cpus = Array.length sys.System.cpu_ports in
    Array.fold_left ( + ) 0
      (Array.sub o.Random_tester.ops_per_port n_cpus
         (Array.length o.Random_tester.ops_per_port - n_cpus))
  in
  {
    rp_availability = 1.0 -. (float_of_int down /. float_of_int (max 1 now));
    rp_mttr =
      (if rejoins > 0 then Some (float_of_int down /. float_of_int rejoins)
       else None);
    rp_quarantines = Xg.Xg_core.quarantine_count core0;
    rp_rejoins = rejoins;
    rp_permakilled = Xg.Xg_core.permakilled core0;
    rp_ops = o.Random_tester.ops_completed;
    rp_neighbor_ops = neighbor_ops;
    rp_data_errors = o.Random_tester.data_errors;
    rp_deadlocked = o.Random_tester.deadlocked;
    rp_cycles = o.Random_tester.cycles - start;
  }

let e10_recovery ?(quick = false) () =
  let ops = if quick then 80 else 200 in
  let ticks = if quick then 150 else 400 in
  let sizes = if quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  let drops = if quick then [ 0.3 ] else [ 0.0; 0.3 ] in
  (* Two deterministic fault bursts per run, so every point sees outages even
     where the retry ladder absorbs the probabilistic drops; the drop rate
     then adds retry-exhaustion faults on top. *)
  let cuts = [ 1_500; 6_000 ] in
  let sweep =
    Table.create
      ~title:
        "E10a: availability and MTTR with recovery, swept over link drop rate \
         and topology size (two scripted fault bursts per run)"
      ~columns:
        [
          "guards";
          "drop";
          "quarantines";
          "rejoins";
          "permakilled";
          "availability";
          "MTTR";
          "ops";
          "data errors";
          "deadlocked";
        ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun drop ->
          let p =
            measure_recovery
              ~topo:(Topology.symmetric ~shards:2 n)
              ~drop ~cuts ~ops ~ticks ~seed:1 ()
          in
          Table.add_row sweep
            [
              Table.cell_int n;
              Printf.sprintf "%.2f" drop;
              Table.cell_int p.rp_quarantines;
              Table.cell_int p.rp_rejoins;
              (if p.rp_permakilled then "YES" else "no");
              Table.cell_pct p.rp_availability;
              (match p.rp_mttr with
              | Some m -> Printf.sprintf "%.0f cyc" m
              | None -> "-");
              Table.cell_int p.rp_ops;
              Table.cell_int p.rp_data_errors;
              (if p.rp_deadlocked then "YES" else "no");
            ])
        drops)
    sizes;
  (* Directed lifecycle rows: rejoin-and-transact, permanent kill after
     repeated quarantines, and the tarpit tripping a hang budget strictly
     before the coarse G2c timeout. *)
  let lifecycle =
    Table.create ~title:"E10b: directed recovery lifecycle scenarios"
      ~columns:
        [
          "scenario";
          "detected";
          "rejoins";
          "permakilled";
          "budget trips";
          "G2c timeouts";
          "accel live after";
          "host live";
        ]
  in
  let scen_cfg = Config.make Config.Hammer (Config.Xg_one_level Config.Transactional) in
  List.iter
    (fun s ->
      let o = Fault_scenarios.run scen_cfg s in
      Table.add_row lifecycle
        [
          Fault_scenarios.scenario_name s;
          (if o.Fault_scenarios.detected then "yes" else "NO");
          Table.cell_int o.Fault_scenarios.rejoins;
          (if o.Fault_scenarios.permakilled then "yes" else "no");
          Table.cell_int o.Fault_scenarios.budget_trips;
          Table.cell_int o.Fault_scenarios.g2c_timeouts;
          (if o.Fault_scenarios.accel_live_after then "yes" else "no");
          (if o.Fault_scenarios.host_live then "yes" else "NO");
        ])
    [
      Fault_scenarios.Recovery_rejoin;
      Fault_scenarios.Repeated_quarantine_permakill;
      Fault_scenarios.Tarpit_budget;
    ];
  (* E9b's neighbor-isolation bound, re-asserted while the victim is actually
     cycling through quarantine -> reset -> probation mid-measurement: the
     wire is cut twice during the measured window on the same N=3 mixed
     topology, and neighbor throughput is compared against an identical run
     with no cuts. *)
  let iso_ops = if quick then 100 else 220 in
  let iso_ticks = if quick then 120 else 300 in
  let base =
    measure_recovery ~topo:(isolation_topology ()) ~drop:0.0 ~cuts:[]
      ~ops:iso_ops ~ticks:iso_ticks ~seed:2 ()
  in
  let faulted =
    measure_recovery ~topo:(isolation_topology ()) ~drop:0.0
      ~cuts:[ 800; 4000 ] ~ops:iso_ops ~ticks:iso_ticks ~seed:2 ()
  in
  let slowdown =
    float_of_int faulted.rp_cycles /. float_of_int (max 1 base.rp_cycles)
  in
  let isolation =
    Table.create
      ~title:
        "E10c: E9b isolation bound during recovery (wire cut twice \
         mid-measurement, N=3 mixed topology)"
      ~columns:[ "metric"; "value" ]
  in
  List.iter (Table.add_row isolation)
    [
      [ "victim quarantines"; Table.cell_int faulted.rp_quarantines ];
      [ "victim rejoins"; Table.cell_int faulted.rp_rejoins ];
      [ "baseline cycles (no cuts)"; Table.cell_int base.rp_cycles ];
      [ "cycles with recovery cycling"; Table.cell_int faulted.rp_cycles ];
      [ "slowdown"; Printf.sprintf "%.3fx" slowdown ];
      [
        "neighbor device ops (base / recovery)";
        Printf.sprintf "%d / %d" base.rp_neighbor_ops faulted.rp_neighbor_ops;
      ];
      [
        "data errors";
        Table.cell_int (base.rp_data_errors + faulted.rp_data_errors);
      ];
      [
        "deadlocked";
        (if base.rp_deadlocked || faulted.rp_deadlocked then "YES" else "no");
      ];
    ];
  {
    id = "e10";
    title = "E10 (recovery, availability & MTTR)";
    tables = [ sweep; lifecycle; isolation ];
  }

(* ---------- E11: SLO health across the matrix; tarpit tenant isolation ----- *)

module Spans = Xguard_obs.Spans
module Metrics = Xguard_obs.Metrics
module Slo = Xguard_obs.Slo

(* One campaign stress job with the metrics stack armed, judged against the
   given objectives on exactly what the metrics layer recorded. *)
let e11_measure ~ops ~seed ~objectives cfg =
  let r =
    Campaign.run ~stress_ops:ops ~seeding:(Campaign.Consecutive seed)
      ~observers:{ Campaign.no_observers with Campaign.metrics = true }
      Campaign.Stress ~configs:[ cfg ] ~seeds:1 ()
  in
  let o = r.Campaign.outcomes.(0) in
  (match o.Campaign.run with
  | Campaign.Crashed e -> failwith ("E11 stress job crashed: " ^ e)
  | _ -> ());
  let msum = o.Campaign.metrics in
  let verdicts =
    Slo.evaluate objectives
      ~span_cells:(Spans.Summary.cells o.Campaign.spans)
      ~guard_hists:(Metrics.Summary.hists msum)
      ~avail:(Metrics.Summary.avails msum)
  in
  (Metrics.Summary.samples msum, verdicts)

let e11_slo ?(quick = false) () =
  let module Xgi = Xg.Xg_iface in
  let parse spec =
    match Slo.parse spec with Ok o -> o | Error e -> invalid_arg e
  in
  (* E11a: one short stress run per configuration of the full matrix, each
     judged against the same objective set.  Guard decision latency and
     availability hold everywhere; the end-to-end bound is deliberately
     generous — this table is the "all tenants healthy" baseline E11b breaks. *)
  let ops = if quick then 100 else 250 in
  let objectives =
    parse "xg.decide:p99<=400;seq.e2e:p99<=60000;avail>=0.95"
  in
  let find_measured verdicts prefix =
    match
      List.find_opt
        (fun v ->
          String.length v.Slo.v_objective >= String.length prefix
          && String.sub v.Slo.v_objective 0 (String.length prefix) = prefix)
        verdicts
    with
    | Some v -> v.Slo.v_measured
    | None -> "-"
  in
  let sweep =
    Table.create
      ~title:
        "E11a: SLO verdicts per configuration (stress workload; \
         xg.decide:p99<=400, seq.e2e:p99<=60000, avail>=0.95)"
      ~columns:
        [ "Configuration"; "samples"; "xg.decide p99"; "seq.e2e p99";
          "availability"; "slo" ]
  in
  List.iter
    (fun cfg ->
      let samples, verdicts = e11_measure ~ops ~seed:7 ~objectives cfg in
      Table.add_row sweep
        [
          Config.name cfg;
          Table.cell_int samples;
          find_measured verdicts "xg.decide";
          find_measured verdicts "seq.e2e";
          find_measured verdicts "avail";
          (if Slo.passed verdicts then "PASS" else "FAIL");
        ])
    (Config.all_configurations ());
  (* E11b: three tenants behind their own guards; tenant [a0] is a tarpit —
     it answers every Invalidate correctly but hundreds of cycles late, then
     immediately re-acquires the block so invalidation traffic never dries
     up.  The per-guard inv.roundtrip SLO must fail for the tarpit alone:
     the guards pin the damage to the slow tenant, the neighbors' verdicts
     stay green (the observability face of the paper's isolation claim). *)
  let tarpit = 900 in
  let inv_bound = 64 in
  let t_ops = if quick then 120 else 300 in
  let topo =
    match
      Topology.of_string
        "hammer:shards=2;a0=trans,cached;nic0=full,uncached,lat=12;dsp0=trans,cached,lat=6"
    with
    | Ok t -> t
    | Error e -> invalid_arg e
  in
  let cfg = { (Config.of_topology topo) with Config.seed = 11 } in
  let (), _, msum =
    Campaign.observe { Campaign.no_observers with Campaign.metrics = true }
      ~label:"tarpit topology" (fun () ->
          (* Guard 0's accelerator stack stays unattached; a scripted tarpit
             endpoint sits on its link instead. *)
          let sys = System.build ~attach_accel:false cfg in
          let g0 = sys.System.guards.(0) in
          let link = g0.System.g_link in
          let self = g0.System.g_accel_node in
          let xg = g0.System.g_xg_node in
          let send msg =
            Xgi.Link.send link ~src:self ~dst:xg ~size:(Xgi.msg_size msg) msg
          in
          Xgi.Link.register link self (fun ~src:_ msg ->
              match msg with
              | Xgi.To_accel_req { addr; req = Xgi.Invalidate } ->
                  Engine.schedule sys.System.engine ~delay:tarpit (fun () ->
                      send (Xgi.To_xg_resp { addr; resp = Xgi.Inv_ack });
                      (* Re-own the block so the next host touch invalidates
                         the tarpit again. *)
                      send (Xgi.To_xg_req { addr; req = Xgi.Get_m }))
              | _ -> ());
          (* Seed the tarpit's working set: it grabs half the tester pool. *)
          for b = 0 to 2 do
            send (Xgi.To_xg_req { addr = Addr.block b; req = Xgi.Get_m })
          done;
          let neighbor_ports =
            Array.concat
              (List.tl
                 (List.map
                    (fun g -> g.System.g_ports)
                    (Array.to_list sys.System.guards)))
          in
          let ports = Array.append sys.System.cpu_ports neighbor_ports in
          let o =
            Random_tester.run ~engine:sys.System.engine
              ~rng:(Rng.create ~seed:(11 * 7 + 1))
              ~ports
              ~addresses:(Array.init 6 Addr.block)
              ~ops_per_core:t_ops ()
          in
          ignore o)
  in
  let verdicts =
    Slo.evaluate
      (parse (Printf.sprintf "inv.roundtrip:p99<=%d" inv_bound))
      ~span_cells:[]
      ~guard_hists:(Metrics.Summary.hists msum)
      ~avail:(Metrics.Summary.avails msum)
  in
  let tarpit_table =
    Slo.to_table
      ~title:
        (Printf.sprintf
           "E11b: per-guard inv.roundtrip:p99<=%d on a 3-tenant topology — \
            tenant a0 acks invalidations %d cycles late"
           inv_bound tarpit)
      verdicts
  in
  { id = "e11"; title = "E11 (SLO health & tarpit-tenant attribution)";
    tables = [ sweep; tarpit_table ] }

(* ---------- registry ---------- *)

let all ?(quick = false) () =
  [
    t1_transition_table ();
    f1_guarantees ();
    f2_organizations ~quick ();
    e1_stress ~quick ();
    e2_fuzz ~quick ();
    e3_performance ~quick ();
    e4_puts_overhead ~quick ();
    e5_storage ~quick ();
    e6_timeout ~quick ();
    e7_rate_limit ~quick ();
    e8_block_merge ();
    e9_topology ~quick ();
    e10_recovery ~quick ();
    e11_slo ~quick ();
    a1_link_ordering ~quick ();
    a2_snoop_filtering ~quick ();
  ]

let ids =
  [ "t1"; "f1"; "f2"; "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10";
    "e11"; "a1"; "a2" ]

let by_id = function
  | "t1" -> Some (fun ?quick () -> ignore quick; t1_transition_table ())
  | "f1" -> Some (fun ?quick () -> ignore quick; f1_guarantees ())
  | "f2" -> Some (fun ?quick () -> f2_organizations ?quick ())
  | "e1" -> Some (fun ?quick () -> e1_stress ?quick ())
  | "e2" -> Some (fun ?quick () -> e2_fuzz ?quick ())
  | "e3" -> Some (fun ?quick () -> e3_performance ?quick ())
  | "e4" -> Some (fun ?quick () -> e4_puts_overhead ?quick ())
  | "e5" -> Some (fun ?quick () -> e5_storage ?quick ())
  | "e6" -> Some (fun ?quick () -> e6_timeout ?quick ())
  | "e7" -> Some (fun ?quick () -> e7_rate_limit ?quick ())
  | "e8" -> Some (fun ?quick () -> ignore quick; e8_block_merge ())
  | "e9" -> Some (fun ?quick () -> e9_topology ?quick ())
  | "e10" -> Some (fun ?quick () -> e10_recovery ?quick ())
  | "e11" -> Some (fun ?quick () -> e11_slo ?quick ())
  | "a1" -> Some (fun ?quick () -> a1_link_ordering ?quick ())
  | "a2" -> Some (fun ?quick () -> a2_snoop_filtering ?quick ())
  | _ -> None
