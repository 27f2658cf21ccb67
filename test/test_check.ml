(* Model-checker suite (PR 6): the bounded explicit-state checker of
   lib/check must terminate on the tiny configurations with exactly the
   state/transition counts pinned in MODEL_BASELINE.json, catch a
   deliberately broken invariant with a replayable counterexample trail,
   enumerate without fingerprint-digest collisions, and refuse a plan whose
   state it cannot fingerprint.  A second group audits the fingerprint
   itself: an equal fingerprint must mean an equal future.  A third
   unit-tests the snapshot-symmetry fixes the checker flushed out of mutable
   controller state (empty guard slots leaking from answered fast paths,
   parked-work tables surviving a drain). *)

module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Engine = Xguard_sim.Engine
module C = Xguard_check.Checker
module Xg = Xguard_xg
module H = Xguard_host_hammer
module M = Xguard_host_mesi

(* [traversal] pins the sequential search's (paths, decisions,
   por_collapsed, deepest): how the DFS walks the tree, which cheap prefix
   replay must leave unchanged. *)
let explore_counts name ~states ~transitions ~traversal =
  let plan = List.assoc name (C.tiny_plans ()) in
  let r = C.explore plan in
  let s = r.C.summary and d = r.C.diagnostics in
  Alcotest.(check (list string)) (name ^ ": no violations") []
    (List.map (fun (v : C.violation) -> v.C.message) s.C.violations);
  Alcotest.(check bool) (name ^ ": not truncated") false
    (d.C.truncated_depth > 0 || d.C.truncated_states);
  Alcotest.(check int) (name ^ ": reachable states") states s.C.states;
  Alcotest.(check int) (name ^ ": transitions") transitions s.C.transitions;
  Alcotest.(check (list int)) (name ^ ": paths, decisions, por-collapsed, deepest") traversal
    [ d.C.paths; d.C.decisions; d.C.por_collapsed; d.C.deepest ]

(* Counts double-pinned here and in MODEL_BASELINE.json: a drift that slips
   past tools/check_model.sh still fails the unit suite (and vice versa). *)
let test_hammer_full_counts () =
  explore_counts "hammer/full" ~states:62 ~transitions:106 ~traversal:[ 86; 982; 176; 18 ]

let test_mesi_full_counts () =
  explore_counts "mesi/full" ~states:12 ~transitions:14 ~traversal:[ 13; 73; 68; 9 ]

let test_hammer_trans_counts () =
  explore_counts "hammer/trans" ~states:24 ~transitions:28 ~traversal:[ 26; 231; 148; 14 ]

let test_mesi_trans_counts () =
  explore_counts "mesi/trans" ~states:12 ~transitions:14 ~traversal:[ 13; 73; 68; 9 ]

(* The plan that dominates the benchmark's [check] sweep. *)
let test_mesi_full_jitter_counts () =
  explore_counts "mesi/full+jitter" ~states:505 ~transitions:3843
    ~traversal:[ 18435; 481760; 102458; 32 ]

(* A test-only invariant hook that trips after a fixed number of evaluations:
   the checker must surface it as a violation whose trail, replayed through
   the trace-armed [C.replay], reproduces the same failure. *)
let mk_tripwire at =
  let seen = ref 0 in
  fun (_ : System.t) ->
    incr seen;
    if !seen > at then Some "tripwire: synthetic invariant failure" else None

let test_broken_invariant_replayable () =
  let plan = List.assoc "hammer/full" (C.tiny_plans ()) in
  let r = C.explore ~extra_invariant:(mk_tripwire 25) plan in
  match r.C.summary.C.violations with
  | [] -> Alcotest.fail "tripwire invariant not caught"
  | v :: _ -> (
      let outcome, events = C.replay ~extra_invariant:(mk_tripwire 25) plan v.C.trail in
      match outcome with
      | `Violation m ->
          Alcotest.(check string) "replay reproduces the violation"
            "tripwire: synthetic invariant failure" m;
          Alcotest.(check bool) "replay recorded trace forensics" true
            (List.length events > 0)
      | `Terminal -> Alcotest.fail "replayed trail drained without tripping"
      | `Incomplete -> Alcotest.fail "replayed trail did not reach the violation")

let diverges what run =
  match run () with
  | _ -> Alcotest.failf "%s replayed without complaint" what
  | exception Invalid_argument m ->
      Alcotest.(check bool) (what ^ " reported: " ^ m) true
        (String.starts_with ~prefix:"Checker: replay diverged" m)

(* A carried prefix replays without re-verification: its events skip the
   invariant hooks, and its digests stand in for fingerprints except at the
   deepest carried scheduler decision, which is recomputed.  Corrupting that
   digest must stop the replay as diverged. *)
let test_replay_divergence_caught () =
  let plan = List.assoc "hammer/full" (C.tiny_plans ()) in
  let root = C.run_path plan ~prefix:[||] ~sh:(C.fresh_shared ()) () in
  let prefix = Array.map (fun d -> d.C.step) root.C.trail in
  let deepest = ref (-1) in
  Array.iteri (fun i st -> if st.C.digest <> None then deepest := i) prefix;
  Alcotest.(check bool) "root path took a scheduler decision" true (!deepest >= 0);
  let evaluations = ref 0 in
  let count (_ : System.t) =
    incr evaluations;
    None
  in
  ignore (C.run_path ~extra_invariant:count plan ~prefix ~sh:(C.fresh_shared ()) ());
  let carried = !evaluations in
  evaluations := 0;
  let trail = List.map (fun st -> st.C.chosen) (Array.to_list prefix) in
  ignore (C.replay ~extra_invariant:count plan trail);
  Alcotest.(check bool) "a carried prefix skips the checks a user trail runs" true
    (carried < !evaluations);
  let corrupt = Array.copy prefix in
  corrupt.(!deepest) <- { (corrupt.(!deepest)) with C.digest = Some (String.make 16 '\000') };
  diverges "a corrupted carried digest" (fun () ->
      C.run_path plan ~prefix:corrupt ~sh:(C.fresh_shared ()) ())

(* Key replay: a sibling prefix run with the path it was cut from fires that
   path's recorded keys instead of reading the choice pools.  Run the search
   path by path, and run every carried prefix a second time without its
   record, against a copy of the sets the keyed run started from: both must
   return the same trail (steps, digests, arities, event indices, POR
   counts), keys and ending, and add the same states and edges.  A carried
   prefix with a corrupted key or tripwire digest must stop as diverged,
   both where the tripwire is the prefix's last decision and where it falls
   inside the keyed events (a jittered prefix ending in a delay draw). *)
let key_replay_matches plan =
  let sh = C.fresh_shared () in
  let copy () =
    { (C.fresh_shared ()) with C.visited = Hashtbl.copy sh.C.visited; edges = Hashtbl.copy sh.C.edges }
  in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
  let hex tbl = List.map Digest.to_hex (sorted tbl) in
  let keyed = ref 0 and corrupted = ref [] in
  let rec dfs = function
    | [] -> ()
    | (prefix, carried) :: rest ->
        let by_choice = Option.map (fun _ -> copy ()) carried in
        let p = C.run_path ?carried plan ~prefix ~sh () in
        (match (carried, by_choice) with
        | Some c, Some sh' ->
            incr keyed;
            let q = C.run_path plan ~prefix ~sh:sh' () in
            Alcotest.(check bool) "same trail" true (p.C.trail = q.C.trail);
            Alcotest.(check (array int)) "same keys" q.C.keys p.C.keys;
            Alcotest.(check bool) "same ending" true (p.C.ending = q.C.ending);
            Alcotest.(check (list string)) "same states" (hex sh'.C.visited) (hex sh.C.visited);
            Alcotest.(check bool) "same edges" true (sorted sh'.C.edges = sorted sh.C.edges);
            let last = Array.length prefix - 1 in
            let tripwire = ref (-1) in
            Array.iteri (fun i st -> if st.C.digest <> None then tripwire := i) prefix;
            let where = if !tripwire = last then `Last else `Inside in
            if
              (not (List.mem where !corrupted))
              && c.C.trail.(last).C.event > 0 && !tripwire >= 0
            then begin
              corrupted := where :: !corrupted;
              let stale = { c with C.keys = Array.map (fun _ -> 1_000_000) c.C.keys } in
              diverges "a corrupted key" (fun () ->
                  C.run_path ~carried:stale plan ~prefix ~sh:(copy ()) ());
              let bad = Array.copy prefix in
              bad.(!tripwire) <- { (bad.(!tripwire)) with C.digest = Some (String.make 16 '\000') };
              diverges "a corrupted digest" (fun () ->
                  C.run_path ~carried:c plan ~prefix:bad ~sh:(copy ()) ())
            end
        | _ -> ());
        dfs (List.map (fun s -> (s, Some p)) (C.siblings p ~from:(Array.length prefix)) @ rest)
  in
  dfs [ ([||], None) ];
  (!keyed, !corrupted)

let test_key_replay_hammer_full () =
  let keyed, corrupted = key_replay_matches (List.assoc "hammer/full" (C.tiny_plans ())) in
  Alcotest.(check int) "every sibling prefix replayed by key" 85 keyed;
  Alcotest.(check bool) "a corrupted key and digest tried" true (List.mem `Last corrupted)

(* Latency draws make prefixes that end inside a keyed event, past their
   tripwire. *)
let test_key_replay_jittered () =
  let plan =
    {
      (C.tiny_plan ~jitter:true ~host:Config.Mesi ~variant:Config.Full_state ()) with
      C.ops =
        [
          (C.Cpu 0, [ Access.store (Addr.block 0) (Data.token 1) ]);
          (C.Accel 0, [ Access.load (Addr.block 0) ]);
        ];
    }
  in
  let _, corrupted = key_replay_matches plan in
  Alcotest.(check bool) "a tripwire inside the keyed events corrupted" true
    (List.mem `Inside corrupted)

(* Digest-collision sanity: at every event boundary of every explored path,
   record digest -> full canonical fingerprint; two different fingerprints
   hashing to one digest would silently merge distinct states. *)
let test_no_digest_collisions () =
  let plan = List.assoc "hammer/full" (C.tiny_plans ()) in
  let seen : (string, string) Hashtbl.t = Hashtbl.create 4096 in
  let states = ref 0 in
  let watch (sys : System.t) =
    let buf = Buffer.create 512 in
    sys.System.check_fingerprint buf;
    let fp = Buffer.contents buf in
    let d = Digest.to_hex (Digest.string fp) in
    incr states;
    (match Hashtbl.find_opt seen d with
    | Some fp' when fp' <> fp ->
        Alcotest.failf "digest collision on %s:\n%s\nvs\n%s" d fp' fp
    | _ -> ());
    Hashtbl.replace seen d fp;
    None
  in
  let r = C.explore ~extra_invariant:watch plan in
  Alcotest.(check (list string)) "healthy model" []
    (List.map (fun (v : C.violation) -> v.C.message) r.C.summary.C.violations);
  Alcotest.(check bool) "watch hook ran" true (!states > 0)

(* A lossy link's reliability layer (sequence numbers, retry state, the
   unacked window) is not fingerprinted and its fault draws are not
   choices, so pruning on such a plan could merge states with different
   futures: the checker refuses it with a reason. *)
let test_refuses_reliable_link () =
  let base = C.tiny_plan ~host:Config.Hammer ~variant:Config.Full_state () in
  let topo =
    match Xguard_harness.Topology.of_string "hammer;gpu0=full,cores=1,lat=1,drop=0.2" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let plan = { base with C.config = Config.of_topology ~base:base.C.config topo } in
  match C.explore plan with
  | _ -> Alcotest.fail "a lossy-link plan was explored"
  | exception Invalid_argument m ->
      Alcotest.(check bool) ("refused with a reason: " ^ m) true
        (String.starts_with ~prefix:"Checker.validate: the link runs its reliability layer" m)

(* ---- fingerprint audit ----

   Pruning a revisited state is sound only if an equal fingerprint means an
   equal future, and the audit tests exactly that.  It runs the checker's
   search path by path through [C.run_path], keeping the trail of every path
   that ended on an already-visited state X.  For each such revisit it then
   takes every branch of X one decision further, with every latency draw on
   the way: each edge out of X found there must be one that X's first visit
   recorded.  These probes share the search's visited set and may add no
   state to it, so each stops at the first decision point beyond X.  They
   carry no digests, so every fingerprint on the way is taken afresh. *)

let search plan sh =
  let revisits = ref [] in
  let rec dfs = function
    | [] -> ()
    | prefix :: rest ->
        let p = C.run_path plan ~prefix ~sh () in
        (match p.C.ending with
        | `Pruned -> revisits := p.C.trail :: !revisits
        | `Terminal -> ()
        | `Violation m -> Alcotest.failf "search found a violation: %s" m
        | `Depth | `States -> Alcotest.fail "search truncated");
        dfs (C.siblings p ~from:(Array.length prefix) @ rest)
  in
  dfs [ [||] ];
  List.rev !revisits

(* Every edge a probe found that the search did not record, with the trail
   that reached its source. *)
let audit plan =
  let sh = C.fresh_shared () in
  let revisits = search plan sh in
  let probe = { (C.fresh_shared ()) with C.visited = sh.C.visited; edges = Hashtbl.create 64 } in
  let capped = { plan with C.max_states = Hashtbl.length sh.C.visited } in
  let run prefix =
    let p = C.run_path capped ~prefix ~sh:probe () in
    (match p.C.ending with
    | `Violation m -> Alcotest.failf "probe found a violation: %s" m
    | `Terminal | `Pruned | `States | `Depth -> ());
    p
  in
  let rec probes = function
    | [] -> ()
    | prefix :: rest ->
        let p = run prefix in
        probes (C.siblings p ~from:(Array.length prefix) @ rest)
  in
  let mismatches = ref [] in
  List.iter
    (fun trail ->
      Hashtbl.clear probe.C.edges;
      let n = Array.length trail in
      let to_x = Array.map (fun d -> { d.C.step with C.digest = None }) trail in
      let first = run (Array.append to_x [| { C.chosen = 0; digest = None } |]) in
      (* A drained X has no branches. *)
      if Array.length first.C.trail > n then begin
        probes (C.siblings first ~from:n);
        Hashtbl.iter
          (fun edge () ->
            if not (Hashtbl.mem sh.C.edges edge) then
              mismatches := (edge, Array.map (fun d -> d.C.step.C.chosen) trail) :: !mismatches)
          probe.C.edges
      end)
    revisits;
  List.rev !mismatches

let audit_clean (name, plan) =
  match audit plan with
  | [] -> ()
  | ((x, y), trail) :: _ as holes ->
      Alcotest.failf "%s: %d fingerprint hole(s); first: %s -> %s after trail %s" name
        (List.length holes) (Digest.to_hex x) (Digest.to_hex y)
        (String.concat ";" (Array.to_list (Array.map string_of_int trail)))

let jittered (name, _) = String.ends_with ~suffix:"+jitter" name

let test_audit_tiny_plans () =
  List.iter audit_clean (List.filter (fun p -> not (jittered p)) (C.tiny_plans ()))

(* The jittered plans take some 375,000 probes (about 25 s), more than the
   unit suite affords: tools/check_model.sh runs this case with
   XGUARD_AUDIT_JITTER=1. *)
let test_audit_jittered_plans () =
  if Sys.getenv_opt "XGUARD_AUDIT_JITTER" = None then Alcotest.skip ();
  List.iter audit_clean (List.filter jittered (C.tiny_plans ()))

(* The audit on random small plans, jitter off and on.  A plan may touch one
   block twice, so an agent's queue alone does not say how far it got.
   Jitter multiplies the tree (and the audit's probes), so a jittered plan
   gives each agent one op. *)
let gen_plan =
  QCheck2.Gen.(
    let access =
      oneofl [ `Load 0; `Load 1; `Store (0, 7); `Store (1, 8); `Store (0, 9) ]
    in
    let* jitter = bool in
    let ops = list_size (if jitter then return 1 else int_range 1 2) access in
    let+ host = oneofl [ Config.Hammer; Config.Mesi ]
    and+ variant = oneofl [ Config.Full_state; Config.Transactional ]
    and+ cpu_ops = ops
    and+ accel_ops = ops in
    (host, variant, jitter, cpu_ops, accel_ops))

let plan_of (host, variant, jitter, cpu_ops, accel_ops) =
  let to_access = function
    | `Load i -> Access.load (Addr.block i)
    | `Store (i, tok) -> Access.store (Addr.block i) (Data.token tok)
  in
  {
    (C.tiny_plan ~jitter ~host ~variant ()) with
    C.ops = [ (C.Cpu 0, List.map to_access cpu_ops); (C.Accel 0, List.map to_access accel_ops) ];
  }

let prop_audit_clean =
  QCheck2.Test.make ~name:"random plans, jitter off and on" ~count:10 gen_plan (fun g ->
      audit (plan_of g) = [])

(* Key replay against choice replay on random small plans with jitter on,
   where carried prefixes end in delay decisions drawn inside keyed
   events. *)
let prop_key_replay =
  QCheck2.Test.make ~name:"key replay = choice replay, random jittered plans" ~count:5
    QCheck2.Gen.(
      let access = oneofl [ `Load 0; `Load 1; `Store (0, 7); `Store (1, 8) ] in
      let+ host = oneofl [ Config.Hammer; Config.Mesi ]
      and+ variant = oneofl [ Config.Full_state; Config.Transactional ]
      and+ cpu_op = access
      and+ accel_op = access in
      (host, variant, true, [ cpu_op ], [ accel_op ]))
    (fun g ->
      ignore (key_replay_matches (plan_of g));
      true)

(* ---- snapshot-symmetry fixes (each with its own unit test) ----

   Drive a tiny system to drain with plain [Engine.run] and assert the
   mutable side tables the checker fingerprints are empty again.  Before the
   fixes each of these leaked residue that only a fingerprint comparison
   could see (an answered fast path kept its empty pending slot, parked
   work outlived its transaction). *)

let drain_tiny host =
  let cfg = C.tiny_config ~host ~variant:Config.Full_state () in
  let sys = System.build cfg in
  let remaining = ref 0 in
  let seqs =
    List.map
      (fun (agent, accesses) ->
        let port =
          match agent with
          | C.Cpu i -> sys.System.cpu_ports.(i)
          | C.Accel i -> sys.System.accel_ports.(i)
        in
        let seq =
          Sequencer.create ~engine:sys.System.engine
            ~name:("drain." ^ C.agent_label agent) ~port ~max_outstanding:1 ()
        in
        remaining := !remaining + List.length accesses;
        let rec issue = function
          | [] -> ()
          | a :: rest ->
              Sequencer.request seq a ~on_complete:(fun _ ~latency:_ ->
                  decr remaining;
                  issue rest)
        in
        issue accesses;
        seq)
      (C.tiny_ops ())
  in
  ignore (Engine.run sys.System.engine);
  Alcotest.(check int) "workload drained" 0 !remaining;
  (sys, seqs)

let test_sequencer_residue () =
  let _, seqs = drain_tiny Config.Hammer in
  List.iter
    (fun seq ->
      Alcotest.(check int)
        (Sequencer.name seq ^ ": ring buffer empty after drain")
        0 (Sequencer.check_residue seq))
    seqs

let test_guard_slots_pruned () =
  (* Covers the answered-fast-path prunes in Xg_core.host_request (untracked
     block, plain-sharer Fwd_s, trusted-copy reply): the guard must not keep
     the empty pending slot [slot] created on entry. *)
  let sys, _ = drain_tiny Config.Hammer in
  match sys.System.guards with
  | [||] -> Alcotest.fail "tiny config has no guard"
  | gs ->
      Alcotest.(check int) "no guard pending slots after drain" 0
        (Xg.Xg_core.check_pending_slots gs.(0).System.g_core)

let test_directory_waiting_tables () =
  (* Two CPUs storing the same block force the directory to park the loser;
     after the drain the waiting tables must be empty again. *)
  let module Sys_h = Xguard_harness.Hammer_system in
  let sys = Sys_h.create ~num_cpus:2 () in
  Sys_h.finalize sys;
  let a0 = Addr.block 0 in
  let done_ = ref 0 in
  Array.iteri
    (fun i c ->
      let port = H.L1l2.cpu_port c in
      ignore
        (port.Access.issue
           (Access.store a0 (Data.token (i + 1)))
           ~on_done:(fun _ -> incr done_)))
    (Sys_h.cpus sys);
  ignore (Engine.run (Sys_h.engine sys));
  Alcotest.(check int) "both racing stores completed" 2 !done_;
  Alcotest.(check int) "directory waiting tables empty after drain" 0
    (H.Directory.check_waiting_tables (Sys_h.directory sys))

let test_mesi_l2_queue_tables () =
  (* Same race against the MESI L2's deferred-request queues. *)
  let module Sys_m = Xguard_harness.Mesi_system in
  let sys = Sys_m.create ~num_cpus:2 () in
  let a0 = Addr.block 0 in
  let done_ = ref 0 in
  Array.iteri
    (fun i c ->
      let port = M.L1.cpu_port c in
      ignore
        (port.Access.issue
           (Access.store a0 (Data.token (i + 1)))
           ~on_done:(fun _ -> incr done_)))
    (Sys_m.cpus sys);
  ignore (Engine.run (Sys_m.engine sys));
  Alcotest.(check int) "both racing stores completed" 2 !done_;
  Alcotest.(check int) "L2 queue tables empty after drain" 0
    (M.L2.check_queue_tables (Sys_m.l2 sys))

(* The drained tiny systems must also pass the full quiescent invariant —
   the aggregate the checker runs at every terminal.  So must every evaluated
   configuration after a contended random-tester run: the guard-less
   organizations' plain accelerator-side / host-side cache is a host peer
   like any CPU, so directory and L2 records naming it are not stale. *)
let test_quiescent_after_drain () =
  List.iter
    (fun host ->
      let sys, _ = drain_tiny host in
      match sys.System.check_quiescent_invariant () with
      | None -> ()
      | Some msg -> Alcotest.failf "drain left residue: %s" msg)
    [ Config.Hammer; Config.Mesi ];
  List.iter
    (fun cfg ->
      List.iter
        (fun seed ->
          let cfg = Config.stress_sized { cfg with Config.seed } in
          let sys = System.build cfg in
          let o =
            Xguard_harness.Random_tester.run ~engine:sys.System.engine
              ~rng:(Xguard_sim.Rng.create ~seed:((seed * 7) + 1))
              ~ports:(Array.append sys.System.cpu_ports sys.System.accel_ports)
              ~addresses:(Array.init 6 Addr.block) ~ops_per_core:300 ()
          in
          let label = Printf.sprintf "%s seed %d" (Config.name cfg) seed in
          Alcotest.(check bool) (label ^ ": drained") false
            o.Xguard_harness.Random_tester.deadlocked;
          Alcotest.(check (option string)) (label ^ ": invariant") None
            (sys.System.check_invariant ());
          Alcotest.(check (option string)) (label ^ ": quiescent invariant") None
            (sys.System.check_quiescent_invariant ()))
        [ 1; 2; 3 ])
    (Config.all_configurations ())

let tests =
  [
    ( "check",
      [
        Alcotest.test_case "hammer/full terminates at the pinned fixed point" `Quick
          test_hammer_full_counts;
        Alcotest.test_case "mesi/full terminates at the pinned fixed point" `Quick
          test_mesi_full_counts;
        Alcotest.test_case "hammer/trans terminates at the pinned fixed point" `Quick
          test_hammer_trans_counts;
        Alcotest.test_case "mesi/trans terminates at the pinned fixed point" `Quick
          test_mesi_trans_counts;
        Alcotest.test_case "mesi/full+jitter terminates at the pinned fixed point" `Quick
          test_mesi_full_jitter_counts;
        Alcotest.test_case "broken invariant caught with a replayable trail" `Quick
          test_broken_invariant_replayable;
        Alcotest.test_case "carried-prefix replay checks its tripwire digest" `Quick
          test_replay_divergence_caught;
        Alcotest.test_case "key replay = choice replay on hammer/full" `Quick
          test_key_replay_hammer_full;
        Alcotest.test_case "key replay = choice replay on a jittered plan" `Quick
          test_key_replay_jittered;
        QCheck_alcotest.to_alcotest prop_key_replay;
        Alcotest.test_case "no visited-set digest collisions" `Quick
          test_no_digest_collisions;
        Alcotest.test_case "lossy-link plan refused" `Quick test_refuses_reliable_link;
      ] );
    ( "check-audit",
      [
        Alcotest.test_case "unjittered tiny plans" `Quick test_audit_tiny_plans;
        Alcotest.test_case "jittered tiny plans" `Slow test_audit_jittered_plans;
        QCheck_alcotest.to_alcotest prop_audit_clean;
      ] );
    ( "check-symmetry",
      [
        Alcotest.test_case "sequencer ring buffer empty after drain" `Quick
          test_sequencer_residue;
        Alcotest.test_case "guard fast-path slots pruned after drain" `Quick
          test_guard_slots_pruned;
        Alcotest.test_case "directory waiting tables empty after racing drain" `Quick
          test_directory_waiting_tables;
        Alcotest.test_case "mesi L2 queue tables empty after racing drain" `Quick
          test_mesi_l2_queue_tables;
        Alcotest.test_case "quiescent invariant clean after tiny drain" `Quick
          test_quiescent_after_drain;
      ] );
  ]
