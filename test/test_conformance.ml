(* Conformance and coverage tests in the style of the paper's section 4.1:
   "we counted the state/event pairs that the random tester visited at each
   cache controller and compared it with the number that we believe are
   possible".  The accelerator L1's possible pairs are exactly the published
   Table 1, so its coverage can be checked against the specification. *)

module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Group = Xguard_stats.Counter.Group
module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Tester = Xguard_harness.Random_tester
module L1 = Xguard_accel.L1_simple

let check_bool = Alcotest.(check bool)

(* Coverage keys used by the implementation for each Table 1 entry. *)
let coverage_key state event =
  let s = L1.Spec.state_to_string state in
  let e =
    match event with
    | L1.Spec.Load -> "Load"
    | L1.Spec.Store -> "Store"
    | L1.Spec.Replacement -> "Replacement"
    | L1.Spec.Invalidate -> "Invalidate"
    | L1.Spec.Data_m_arrival -> "DataM"
    | L1.Spec.Data_e_arrival -> "DataE"
    | L1.Spec.Data_s_arrival -> "DataS"
    | L1.Spec.Wb_ack_arrival -> "WbAck"
  in
  s ^ "." ^ e

let possible_keys () =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun e ->
          match L1.Spec.mesi s e with
          | L1.Spec.Impossible -> None
          | L1.Spec.Entry _ -> Some (coverage_key s e))
        L1.Spec.all_events)
    L1.Spec.all_states

(* Run the stress tester over several seeds and merge accel-L1 coverage. *)
let merged_coverage cfg ~seeds ~ops =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun seed ->
      let cfg = Config.stress_sized { cfg with Config.seed } in
      let sys = System.build cfg in
      let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
      let o =
        Tester.run ~engine:sys.System.engine
          ~rng:(Rng.create ~seed:(seed * 7 + 1))
          ~ports
          ~addresses:(Array.init 6 Addr.block)
          ~ops_per_core:ops ()
      in
      Alcotest.(check int) "stress clean" 0 o.Tester.data_errors;
      Array.iter
        (fun l1 ->
          List.iter
            (fun (key, n) -> if n > 0 then Hashtbl.replace seen key ())
            (Group.to_list (L1.coverage l1)))
        sys.System.guards.(0).System.g_l1s)
    seeds;
  seen

let test_accel_l1_coverage_vs_table1 () =
  (* Every transition the tester visits must be a possible Table 1 entry, and
     the sweep must reach nearly all of them. *)
  let cfg = Config.make Config.Hammer (Config.Xg_one_level Config.Transactional) in
  let seen = merged_coverage cfg ~seeds:[ 1; 2; 3; 4; 5; 6 ] ~ops:500 in
  let possible = possible_keys () in
  Hashtbl.iter
    (fun key () ->
      check_bool
        (Printf.sprintf "visited transition %s appears in Table 1" key)
        true (List.mem key possible))
    seen;
  let visited = List.filter (Hashtbl.mem seen) possible in
  let missing = List.filter (fun k -> not (Hashtbl.mem seen k)) possible in
  (* The paper inspected never-visited transitions manually; here the random
     tester must cover at least 19 of the 23 possible entries, and the
     load-bearing ones unconditionally. *)
  check_bool
    (Printf.sprintf "coverage %d/%d (missing: %s)" (List.length visited)
       (List.length possible) (String.concat ", " missing))
    true
    (List.length visited >= 19);
  List.iter
    (fun key -> check_bool (key ^ " covered") true (Hashtbl.mem seen key))
    [
      "M.Invalidate";
      "S.Invalidate";
      "B.Invalidate";
      "M.Replacement";
      "S.Store";
      "B.DataM";
      "B.DataS";
      "B.WbAck";
    ]

let test_host_controllers_exercised () =
  (* Both host protocols' controllers see a broad set of events under
     stress; exact possible-counts are protocol internals, so require a
     floor rather than equality (the paper also accepted <100% after manual
     inspection). *)
  List.iter
    (fun (host, floor) ->
      let cfg = Config.make host (Config.Xg_one_level Config.Full_state) in
      let keys = Hashtbl.create 64 in
      List.iter
        (fun seed ->
          let cfg = Config.stress_sized { cfg with Config.seed } in
          let sys = System.build cfg in
          let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
          ignore
            (Tester.run ~engine:sys.System.engine
               ~rng:(Rng.create ~seed:(seed * 3 + 2))
               ~ports
               ~addresses:(Array.init 6 Addr.block)
               ~ops_per_core:400 ());
          List.iter
            (fun (_, g) ->
              List.iter (fun (k, n) -> if n > 0 then Hashtbl.replace keys k ()) (Group.to_list g))
            (sys.System.coverage_groups ()))
        [ 1; 2; 3 ];
      check_bool
        (Printf.sprintf "%s: %d distinct controller transitions" (Config.host_label host)
           (Hashtbl.length keys))
        true
        (Hashtbl.length keys >= floor))
    [ (Config.Hammer, 35); (Config.Mesi, 35) ]

(* The experiment harness itself must produce well-formed reports. *)
let test_experiment_reports_build () =
  let module E = Xguard_harness.Experiments in
  List.iter
    (fun id ->
      match E.by_id id with
      | Some f ->
          let r = f ~quick:true () in
          check_bool (id ^ " has tables") true (List.length r.E.tables > 0);
          List.iter
            (fun t -> check_bool (id ^ " renders") true (String.length (Xguard_stats.Table.to_string t) > 0))
            r.E.tables
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "t1"; "e8" ]

let tests =
  [
    ( "conformance",
      [
        Alcotest.test_case "accel L1 coverage vs Table 1" `Quick
          test_accel_l1_coverage_vs_table1;
        Alcotest.test_case "host controllers exercised" `Quick test_host_controllers_exercised;
        Alcotest.test_case "experiment reports build" `Quick test_experiment_reports_build;
      ] );
  ]
