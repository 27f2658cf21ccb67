(** Performance measurement (experiments E3, E4, A2).

    Runs a workload to completion on a configured system and reports the
    cycle count, per-access latency, host/link traffic and the Crossing
    Guard's own counters.  The paper's performance claims are about shape —
    the Crossing Guard organizations should track the unsafe accelerator-side
    cache and beat the host-side cache — so the numbers are compared as
    ratios across configurations with everything else held equal. *)

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
  put_s_messages : int;  (** PutS the accelerator issued (from XG stats) *)
  put_s_suppressed : int;
  snoop_fast_path : int;
  snoop_roundtrip : int;
  violations : int;
}

val run : Config.t -> Xguard_workload.Workload.t -> result
(** Builds the system, drives the accelerator stream(s) and any CPU-side
    streams concurrently, and runs to quiescence, recording into whatever
    observers the calling domain has armed ({!Campaign.observe}); they never
    change [cycles] or any other field.
    @raise Failure on deadlock (incomplete streams with a drained queue). *)
