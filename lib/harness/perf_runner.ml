module Engine = Xguard_sim.Engine
module Rng = Xguard_sim.Rng
module Histogram = Xguard_stats.Histogram
module Group = Xguard_stats.Counter.Group
module Workload = Xguard_workload.Workload
module Xg = Xguard_xg

type result = {
  config_name : string;
  workload_name : string;
  cycles : int;
  accel_accesses : int;
  mean_accel_latency : float;
  p99_accel_latency : int;
  host_bytes : int;
  link_bytes : int;
  xg_to_host_bytes : int;
  put_s_messages : int;
  put_s_suppressed : int;
  snoop_fast_path : int;
  snoop_roundtrip : int;
  violations : int;
}

(* Drive one stream through a sequencer, respecting its issue width. *)
let drive (seq : Sequencer.t) (stream : Workload.stream) ~on_all_done =
  let total = Array.length stream.Workload.accesses in
  if total = 0 then on_all_done ()
  else begin
    let issued = ref 0 and completed = ref 0 in
    let rec top_up () =
      if !issued < total && !issued - !completed < stream.Workload.max_outstanding then begin
        let access = stream.Workload.accesses.(!issued) in
        incr issued;
        Sequencer.request seq access ~on_complete:(fun _ ~latency:_ ->
            incr completed;
            if !completed = total then on_all_done () else top_up ());
        top_up ()
      end
    in
    top_up ()
  end

let run (cfg : Config.t) (workload : Workload.t) =
  let sys = System.build cfg in
  let engine = sys.System.engine in
  let rng = Rng.create ~seed:(cfg.Config.seed * 131 + 17) in
  let accel_streams =
    workload.Workload.make_streams
      ~cores:(Array.length sys.System.accel_ports)
      ~rng:(Rng.split rng)
  in
  let cpu_streams =
    workload.Workload.cpu_streams ~cpus:(Array.length sys.System.cpu_ports) ~rng:(Rng.split rng)
  in
  let accel_latency = Histogram.create "accel.access_latency" in
  let pending = ref 0 in
  let finished () = decr pending in
  (* Accelerator side. *)
  let accel_seqs =
    Array.mapi
      (fun i port ->
        Sequencer.create ~engine
          ~name:(Printf.sprintf "perf.accel%d" i)
          ~port ~max_outstanding:32 ())
      sys.System.accel_ports
  in
  Array.iteri
    (fun i stream ->
      if i < Array.length accel_seqs then begin
        incr pending;
        drive accel_seqs.(i) stream ~on_all_done:finished
      end)
    accel_streams;
  (* CPU side. *)
  let cpu_seqs =
    Array.mapi
      (fun i port ->
        Sequencer.create ~engine
          ~name:(Printf.sprintf "perf.cpu%d" i)
          ~port ~max_outstanding:16 ())
      sys.System.cpu_ports
  in
  Array.iteri
    (fun i stream ->
      if i < Array.length cpu_seqs then begin
        incr pending;
        drive cpu_seqs.(i) stream ~on_all_done:finished
      end)
    cpu_streams;
  (match Engine.run ~max_events:200_000_000 engine with
  | Engine.Drained -> ()
  | _ -> failwith ("perf run hit the event limit: " ^ Config.name cfg));
  if !pending <> 0 then
    failwith
      (Printf.sprintf "perf run deadlocked: %s / %s (%d streams unfinished)" (Config.name cfg)
         workload.Workload.name !pending);
  (* Gather accelerator latency out of the sequencers. *)
  let accesses = ref 0 in
  Array.iter
    (fun seq ->
      accesses := !accesses + Sequencer.completed seq;
      let h = Sequencer.latency seq in
      if Histogram.count h > 0 then
        List.iter
          (fun (lo, _, n) ->
            for _ = 1 to n do
              Histogram.observe accel_latency lo
            done)
          (Histogram.buckets h))
    accel_seqs;
  let xg_stat name =
    match sys.System.guards with
    | [||] -> 0
    | gs -> Group.get (Xg.Xg_core.stats gs.(0).System.g_core) name
  in
  {
    config_name = Config.name cfg;
    workload_name = workload.Workload.name;
    cycles = Engine.now engine;
    accel_accesses = !accesses;
    mean_accel_latency = Histogram.mean accel_latency;
    p99_accel_latency =
      (if Histogram.count accel_latency > 0 then Histogram.percentile accel_latency 0.99 else 0);
    host_bytes = sys.System.host_net_bytes ();
    link_bytes = sys.System.link_bytes ();
    xg_to_host_bytes = sys.System.xg_port_to_host_bytes ();
    put_s_messages = xg_stat "put_s_unnecessary" + xg_stat "put_s_forwarded";
    put_s_suppressed = xg_stat "put_s_suppressed";
    snoop_fast_path = xg_stat "snoop_fast_path" + xg_stat "side_channel_filtered";
    snoop_roundtrip = xg_stat "invalidate_to_accel";
    violations = Xg.Os_model.error_count sys.System.os;
  }
