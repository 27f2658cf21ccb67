(* Benchmark harness: regenerates every table and figure of the reproduction
   (see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured)
   plus a Bechamel micro-benchmark suite over the simulation machinery.

   Usage:
     bench/main.exe                 run every experiment (full size)
     bench/main.exe --quick         run every experiment (reduced size)
     bench/main.exe --trace ...     arm the event ring buffer; if an
                                    experiment crashes, dump the trail
                                    (requires -j 1)
     bench/main.exe -j 4            run experiments on 4 domains
     bench/main.exe --spans         arm the transaction span layer; each
                                    experiment's report (and --json) gains a
                                    latency-attribution table
     bench/main.exe --json OUT      also write tables + wall times as JSON
                                    (the BENCH_*.json trajectory files)
     bench/main.exe e3 e4           run selected experiments
     bench/main.exe micro           run the Bechamel micro-suite
*)

module Experiments = Xguard_harness.Experiments
module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Config = Xguard_harness.Config
module System = Xguard_harness.System
module Tester = Xguard_harness.Random_tester
module Pool = Xguard_parallel.Pool
module Table = Xguard_stats.Table
module Spans = Xguard_obs.Spans
module Campaign = Xguard_harness.Campaign

let print_report (r : Experiments.report) =
  Printf.printf "==============================================================\n";
  Printf.printf "%s\n" r.Experiments.title;
  Printf.printf "==============================================================\n";
  List.iter
    (fun t -> Printf.printf "%s\n" (Xguard_stats.Table.to_string t))
    r.Experiments.tables

(* ---- Bechamel micro-benchmarks: one per experiment family, so a
   regression in any table's machinery is visible as a throughput change. ---- *)

let bench_engine_events =
  (* T1/E1 family substrate: raw event throughput. *)
  Bechamel.Test.make ~name:"sim_kernel.events"
    (Bechamel.Staged.stage (fun () ->
         let e = Engine.create () in
         for i = 0 to 999 do
           Engine.schedule e ~delay:(i mod 7) ignore
         done;
         ignore (Engine.run e)))

let bench_network_messages =
  let module Net = Xguard_network.Network.Make (struct
    type t = int
  end) in
  Bechamel.Test.make ~name:"network.messages"
    (Bechamel.Staged.stage (fun () ->
         let e = Engine.create () in
         let rng = Rng.create ~seed:1 in
         let reg = Node.Registry.create () in
         let a = Node.Registry.fresh reg "a" and b = Node.Registry.fresh reg "b" in
         let net =
           Net.create ~engine:e ~rng ~name:"bench"
             ~ordering:(Xguard_network.Network.Ordered { latency = 3 })
             ()
         in
         Net.register net b (fun ~src:_ _ -> ());
         Net.register net a (fun ~src:_ _ -> ());
         for i = 0 to 499 do
           Net.send net ~src:a ~dst:b i
         done;
         ignore (Engine.run e)))

let bench_xg_transactions =
  (* E2/F1 family: end-to-end guard transactions (accel L1 + XG + Hammer). *)
  Bechamel.Test.make ~name:"xg.transactions"
    (Bechamel.Staged.stage (fun () ->
         let cfg = Config.make Config.Hammer (Config.Xg_one_level Config.Transactional) in
         let sys = System.build cfg in
         let port = sys.System.accel_ports.(0) in
         for i = 0 to 63 do
           ignore (port.Access.issue (Access.load (Addr.block i)) ~on_done:(fun _ -> ()))
         done;
         ignore (Engine.run sys.System.engine)))

let bench_xg_transactions_reliable =
  (* PR 3 overhead check: the same transaction batch with the link's
     seq+checksum reliability layer on and fault injection off.  Compare
     against xg.transactions for the pure framing/ack cost. *)
  Bechamel.Test.make ~name:"xg.transactions_reliable"
    (Bechamel.Staged.stage (fun () ->
         let cfg = Config.make Config.Hammer (Config.Xg_one_level Config.Transactional) in
         let cfg =
           { cfg with Config.link_faults = Some Xguard_network.Network.Fault.zero }
         in
         let sys = System.build cfg in
         let port = sys.System.accel_ports.(0) in
         for i = 0 to 63 do
           ignore (port.Access.issue (Access.load (Addr.block i)) ~on_done:(fun _ -> ()))
         done;
         ignore (Engine.run sys.System.engine)))

let bench_stress_iteration =
  (* E1 family: one small random-tester iteration. *)
  Bechamel.Test.make ~name:"stress.iteration"
    (Bechamel.Staged.stage (fun () ->
         let cfg =
           Config.stress_sized (Config.make Config.Mesi (Config.Xg_one_level Config.Full_state))
         in
         let sys = System.build cfg in
         let ports = Array.append sys.System.cpu_ports sys.System.accel_ports in
         ignore
           (Tester.run ~engine:sys.System.engine ~rng:(Rng.create ~seed:3) ~ports
              ~addresses:(Array.init 6 Addr.block) ~ops_per_core:50 ())))

let bench_perf_family =
  (* E3/E4/A2 family: one short workload run. *)
  Bechamel.Test.make ~name:"perf.workload_run"
    (Bechamel.Staged.stage (fun () ->
         ignore
           (Xguard_harness.Perf_runner.run
              (Config.make Config.Hammer Config.Accel_side)
              (Xguard_workload.Workload.blocked ~tiles:4 ()))))

(* Returns [(name, ns_per_run option)] so the JSON emitter can record the
   micro trajectory alongside the experiment tables. *)
let run_micro () =
  let open Bechamel in
  let benchmarks =
    [
      bench_engine_events;
      bench_network_messages;
      bench_xg_transactions;
      bench_xg_transactions_reliable;
      bench_stress_iteration;
      bench_perf_family;
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.fold
        (fun name result acc ->
          let est =
            match Bechamel.Analyze.OLS.estimates result with
            | Some [ est ] -> Some est
            | _ -> None
          in
          (match est with
          | Some e -> Printf.printf "%-28s %12.1f ns/run\n%!" name e
          | None -> Printf.printf "%-28s (no estimate)\n%!" name);
          (name, est) :: acc)
        results [])
    benchmarks

(* Run [f] and, if the experiment machinery raises while a trace ring is
   armed (--trace), dump the ring's tail — the forensics path of lib/trace. *)
let dump_trail_on_failure f =
  try f ()
  with e ->
    (match Xguard_obs.Obs.trace () with
    | Some tr ->
        let tail = Xguard_trace.Trace.dump ~last:60 tr in
        if tail <> "" then Printf.eprintf "-- event trail (last 60 events) --\n%s\n" tail
    | None -> ());
    raise e

(* ---- hand-rolled JSON (the container carries no yojson) ---- *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_json_list buf add items =
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    items;
  Buffer.add_char buf ']'

let add_json_table buf t =
  Buffer.add_string buf "{\"title\":";
  add_json_string buf (Table.title t);
  Buffer.add_string buf ",\"columns\":";
  add_json_list buf add_json_string (Table.columns t);
  Buffer.add_string buf ",\"rows\":";
  add_json_list buf (fun buf row -> add_json_list buf add_json_string row) (Table.rows t);
  Buffer.add_char buf '}'

(* One trajectory file per run: experiment tables (deterministic) plus wall
   times and events/sec throughput (not).  Perf regressions show up as drift
   in [wall_s]/[events_per_s] across the committed BENCH_*.json sequence and
   trip tools/check_bench.sh; result regressions as diffs in [tables]. *)
let emit_json ~path ~quick ~experiments ~micro =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"schema\":\"xguard-bench-v1\"";
  Printf.bprintf buf ",\"quick\":%b" quick;
  (match experiments with
  | [] -> ()
  | _ ->
      Buffer.add_string buf ",\"experiments\":";
      add_json_list buf
        (fun buf (r, wall_s, events) ->
          Buffer.add_string buf "{\"id\":";
          add_json_string buf r.Experiments.id;
          Buffer.add_string buf ",\"title\":";
          add_json_string buf r.Experiments.title;
          Printf.bprintf buf ",\"wall_s\":%.3f" wall_s;
          Printf.bprintf buf ",\"events\":%d" events;
          if wall_s > 0. then
            Printf.bprintf buf ",\"events_per_s\":%.0f" (float_of_int events /. wall_s);
          Buffer.add_string buf ",\"tables\":";
          add_json_list buf add_json_table r.Experiments.tables;
          Buffer.add_char buf '}')
        experiments);
  (match micro with
  | [] -> ()
  | _ ->
      Buffer.add_string buf ",\"micro\":";
      add_json_list buf
        (fun buf (name, est) ->
          Buffer.add_string buf "{\"name\":";
          add_json_string buf name;
          (match est with
          | Some ns ->
              Printf.bprintf buf ",\"ns_per_run\":%.1f" ns;
              if ns > 0. then Printf.bprintf buf ",\"ops_per_s\":%.1f" (1e9 /. ns)
          | None -> ());
          Buffer.add_char buf '}')
        micro);
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s\n" path

let usage () =
  Printf.eprintf
    "usage: bench/main.exe [--quick] [--trace] [--spans] [-j N] [--json OUT] \
     [EXPERIMENT...|micro]\n";
  exit 2

let () =
  let jobs = ref 1 in
  let json = ref None in
  let quick = ref false in
  let traced = ref false in
  let spans = ref false in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: tl -> quick := true; parse tl
    | "--trace" :: tl -> traced := true; parse tl
    | "--spans" :: tl -> spans := true; parse tl
    | ("-j" | "--jobs") :: n :: tl -> (
        match int_of_string_opt n with
        | Some v when v >= 1 -> jobs := v; parse tl
        | _ -> Printf.eprintf "-j expects a positive integer, got %S\n" n; exit 2)
    | "--json" :: path :: tl -> json := Some path; parse tl
    | [ ("-j" | "--jobs" | "--json") ] -> usage ()
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
        Printf.eprintf "unknown option %S\n" a;
        usage ()
    | a :: tl -> selected := !selected @ [ a ]; parse tl
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick and traced = !traced and jobs = !jobs and spans = !spans in
  (* "micro" may stand alone or ride along with experiment ids (e.g.
     `bench e1 micro --json ...`); a BENCH_*.json baseline generated with
     `bench --quick micro --json OUT` then carries both the experiment wall
     times and the micro trajectory. *)
  let want_micro = List.mem "micro" !selected in
  let exp_ids = List.filter (fun id -> id <> "micro") !selected in
  match (want_micro, exp_ids) with
  | true, [] ->
      let micro = run_micro () in
      Option.iter (fun path -> emit_json ~path ~quick ~experiments:[] ~micro) !json
  | want_micro, ids ->
      let ids = if ids = [] then Experiments.ids else ids in
      let runs =
        Array.of_list
          (List.map
             (fun id ->
               match Experiments.by_id id with
               | Some f -> (id, f)
               | None ->
                   Printf.eprintf "unknown experiment %S; known: %s, micro\n" id
                     (String.concat ", " Experiments.ids);
                   exit 1)
             ids)
      in
      (* Experiments are independent simulations; fan them out over domains.
         Results are printed in selection order afterwards, so output is
         byte-identical for any -j (wall times in --json excepted). *)
      let results =
        Pool.map ~workers:jobs ~jobs:(Array.length runs) (fun i ->
            let id, f = runs.(i) in
            let ev0 = Engine.events_fired_here () in
            let t0 = Unix.gettimeofday () in
            let r, rec_, _ =
              Campaign.observe
                { Campaign.no_observers with Campaign.trace = traced; spans }
                ~label:id
                (fun () -> dump_trail_on_failure (fun () -> f ~quick ()))
            in
            let wall = Unix.gettimeofday () -. t0 in
            (* With --spans, the attribution table rides along in the report
               so it reaches both stdout and the --json trajectory file. *)
            let r =
              match rec_ with
              | None -> r
              | Some rc -> (
                  match
                    Spans.Summary.attribution_table
                      ~title:
                        (Printf.sprintf "Latency attribution (cycles): %s" r.Experiments.id)
                      (Spans.summary rc)
                  with
                  | Some t -> { r with Experiments.tables = r.Experiments.tables @ [ t ] }
                  | None -> r)
            in
            (r, wall, Engine.events_fired_here () - ev0))
      in
      let ok = ref [] in
      let failed = ref false in
      Array.iteri
        (fun i outcome ->
          match outcome with
          | Pool.Done ((r, _, _) as run) ->
              print_report r;
              ok := run :: !ok
          | Pool.Failed msg ->
              failed := true;
              Printf.eprintf "experiment %s FAILED: %s\n" (fst runs.(i)) msg)
        results;
      let micro = if want_micro then run_micro () else [] in
      Option.iter
        (fun path -> emit_json ~path ~quick ~experiments:(List.rev !ok) ~micro)
        !json;
      if ids = Experiments.ids && (not want_micro) && !json = None then
        Printf.printf "\n(micro-benchmarks: run with `micro`)\n";
      if !failed then exit 1
