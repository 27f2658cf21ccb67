module Coverage = Xguard_trace.Coverage

(* Pure-observer anomaly detector.  It sees exactly what a metrics sample
   sees — counter deltas and gauge values at each sampler tick — and judges
   them against four rules.  It never touches simulation state: trips are
   reported through a callback (System wires it to [Os_model.anomaly] and an
   [obs.watchdog] coverage matrix) and recorded in the metrics stream.

   The default thresholds are sized so every rule fires strictly before the
   coarse G2c transaction timeout (4000 cycles at the default sampler period
   of 500 cycles): a stalled or starved tenant is flagged while the guard can
   still act on it, in the spirit of PR 8's per-phase hang budgets. *)

type config = {
  retry_burst : int;  (** link retransmit frames per tick that count as a storm *)
  stall_ticks : int;  (** consecutive zero-progress ticks with open transactions *)
  starve_ticks : int;  (** consecutive ticks a port waits while others progress *)
  ceilings : (string * int) list;  (** gauge name -> inclusive trip level *)
}

let default =
  { retry_burst = 64; stall_ticks = 4; starve_ticks = 8; ceilings = [] }

let rules = [| "retry_storm"; "quiesce_stall"; "port_starved"; "gauge_ceiling" |]
let events = [| "Trip"; "Clear" |]

let coverage_space =
  Coverage.space ~name:"obs.watchdog" ~states:(Array.to_list rules)
    ~events:(Array.to_list events) ()

let parse spec =
  let cfg = ref default in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parts =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go = function
    | [] -> Ok !cfg
    | part :: rest -> (
        match String.index_opt part '=' with
        | None -> err "watchdog: expected key=value in %S" part
        | Some i -> (
            let k = String.sub part 0 i in
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            match (k, int_of_string_opt v) with
            | _, None -> err "watchdog: %S is not an integer in %S" v part
            | "retry", Some n ->
                cfg := { !cfg with retry_burst = n };
                go rest
            | "stall", Some n ->
                cfg := { !cfg with stall_ticks = n };
                go rest
            | "starve", Some n ->
                cfg := { !cfg with starve_ticks = n };
                go rest
            | k, Some n when String.length k > 5 && String.sub k 0 5 = "ceil:" ->
                let gauge = String.sub k 5 (String.length k - 5) in
                cfg := { !cfg with ceilings = !cfg.ceilings @ [ (gauge, n) ] };
                go rest
            | k, Some _ -> err "watchdog: unknown rule key %S" k))
  in
  go parts

type event = { w_ts : int; w_rule : string; w_event : string; w_detail : string }

(* Latch state of one sequencer port, the [base] of a gauge named
   ["base.outstanding"]: its partner gauge's name, the partner's value at the
   previous tick, and the starvation streak. *)
type port = {
  completed_key : string;  (** ["base.completed"] *)
  base : string;
  mutable seen : bool;  (** whether [prev_completed] holds a value yet *)
  mutable prev_completed : int;
  mutable streak : int;
  mutable starved : bool;
}

(* How a gauge name classifies, worked out once per name and watchdog, with
   the name's [gauge_ceiling] latch. *)
type gauge_class = { open_txn : bool; port : port option; mutable over_ceiling : bool }

(* Where the rules find their gauges in one tick's list, valid for as long
   as the list carries the same names in the same order. *)
type plan = {
  names : string array;
  classes : gauge_class array;
  partner : int array;  (** first index named [port.completed_key], or -1 *)
  ceiling_at : int array;  (** per ceiling, first index with its name, or -1 *)
}

type t = {
  cfg : config;
  mutable reporter : (rule:int -> event:int -> detail:string -> unit) option;
  (* per-rule latch state *)
  mutable storm_on : bool;
  mutable stall_streak : int;
  mutable stall_on : bool;
  memo : (string, gauge_class) Hashtbl.t;
  mutable plan : plan;
  mutable values : int array;  (** this tick's gauge values, plan order *)
}

let create cfg =
  {
    cfg;
    reporter = None;
    storm_on = false;
    stall_streak = 0;
    stall_on = false;
    memo = Hashtbl.create 32;
    plan =
      {
        names = [||];
        classes = [||];
        partner = [||];
        ceiling_at = Array.make (List.length cfg.ceilings) (-1);
      };
    values = [||];
  }

let set_reporter t f = t.reporter <- Some f

let classify t name =
  match Hashtbl.find_opt t.memo name with
  | Some c -> c
  | None ->
      let port =
        if not (String.ends_with ~suffix:".outstanding" name) then None
        else
          let base = String.sub name 0 (String.length name - String.length ".outstanding") in
          Some
            {
              completed_key = base ^ ".completed";
              base;
              seen = false;
              prev_completed = 0;
              streak = 0;
              starved = false;
            }
      in
      let c =
        {
          open_txn = String.ends_with ~suffix:".open_transactions" name;
          port;
          over_ceiling = false;
        }
      in
      Hashtbl.add t.memo name c;
      c

let make_plan t gauges =
  let names = Array.of_list (List.map fst gauges) in
  let first = Hashtbl.create (Array.length names) in
  Array.iteri (fun i n -> if not (Hashtbl.mem first n) then Hashtbl.add first n i) names;
  let index n = Option.value ~default:(-1) (Hashtbl.find_opt first n) in
  let classes = Array.map (classify t) names in
  {
    names;
    classes;
    partner =
      Array.map (fun c -> match c.port with Some p -> index p.completed_key | None -> -1) classes;
    ceiling_at = Array.of_list (List.map (fun (g, _) -> index g) t.cfg.ceilings);
  }

(* Copy this tick's gauge values into [t.values]; false when the names
   differ from the plan's. *)
let rec load t i = function
  | [] -> i = Array.length t.plan.names
  | (name, v) :: rest ->
      if i < Array.length t.plan.names && String.equal name t.plan.names.(i) then begin
        t.values.(i) <- v;
        load t (i + 1) rest
      end
      else false

let replan t gauges =
  if not (load t 0 gauges) then begin
    t.plan <- make_plan t gauges;
    t.values <- Array.of_list (List.map snd gauges)
  end

let suffix_sum ~suffix kvs =
  List.fold_left
    (fun acc (name, v) -> if String.ends_with ~suffix name then acc + v else acc)
    0 kvs

let emit t acc ~now ~rule ~event:ev ~detail =
  (match t.reporter with
  | Some f -> f ~rule ~event:ev ~detail
  | None -> ());
  acc :=
    { w_ts = now; w_rule = rules.(rule); w_event = events.(ev); w_detail = detail }
    :: !acc

(* One sampler tick: [deltas] are the nonzero counter increments since the
   previous tick, [gauges] the instantaneous gauge values, both in the
   sampler's deterministic source order. *)
let observe t ~now ~deltas ~gauges =
  let acc = ref [] in
  replan t gauges;
  let plan = t.plan and values = t.values in
  let progress = List.fold_left (fun a (_, d) -> a + abs d) 0 deltas in
  (* retry_storm: a burst of link-level retransmissions in a single tick. *)
  let retx = suffix_sum ~suffix:".retransmit_frames" deltas in
  if retx >= t.cfg.retry_burst && not t.storm_on then begin
    t.storm_on <- true;
    emit t acc ~now ~rule:0 ~event:0
      ~detail:(Printf.sprintf "%d retransmit frames in one tick (burst >= %d)" retx t.cfg.retry_burst)
  end
  else if retx = 0 && t.storm_on then begin
    t.storm_on <- false;
    emit t acc ~now ~rule:0 ~event:1 ~detail:"retransmissions subsided"
  end;
  (* quiesce_stall: transactions stay open while nothing in the system moves. *)
  let open_txns = ref 0 in
  Array.iteri (fun i c -> if c.open_txn then open_txns := !open_txns + values.(i)) plan.classes;
  let open_txns = !open_txns in
  if open_txns > 0 && progress = 0 then begin
    t.stall_streak <- t.stall_streak + 1;
    if t.stall_streak >= t.cfg.stall_ticks && not t.stall_on then begin
      t.stall_on <- true;
      emit t acc ~now ~rule:1 ~event:0
        ~detail:
          (Printf.sprintf "%d open transaction(s), no counter progress for %d tick(s)"
             open_txns t.stall_streak)
    end
  end
  else begin
    if t.stall_on then begin
      t.stall_on <- false;
      emit t acc ~now ~rule:1 ~event:1 ~detail:"progress resumed"
    end;
    t.stall_streak <- 0
  end;
  (* port_starved: a sequencer holds work but completes nothing while the
     rest of the system is visibly making progress. *)
  Array.iteri
    (fun i c ->
      match c.port with
      | Some p when plan.partner.(i) >= 0 ->
          let v = values.(i) and completed = values.(plan.partner.(i)) in
          let prev = if p.seen then p.prev_completed else completed in
          p.seen <- true;
          p.prev_completed <- completed;
          if v > 0 && completed = prev && progress > 0 then begin
            p.streak <- p.streak + 1;
            if p.streak >= t.cfg.starve_ticks && not p.starved then begin
              p.starved <- true;
              emit t acc ~now ~rule:2 ~event:0
                ~detail:
                  (Printf.sprintf "%s: %d op(s) outstanding, none completed for %d tick(s)"
                     p.base v p.streak)
            end
          end
          else begin
            if p.starved then begin
              p.starved <- false;
              emit t acc ~now ~rule:2 ~event:1
                ~detail:(Printf.sprintf "%s: completing again" p.base)
            end;
            p.streak <- 0
          end
      | _ -> ())
    plan.classes;
  (* gauge_ceiling: a named gauge reached an operator-declared level. *)
  List.iteri
    (fun k (gauge, limit) ->
      let at = plan.ceiling_at.(k) in
      if at >= 0 then begin
        let v = values.(at) and c = plan.classes.(at) in
        if v >= limit && not c.over_ceiling then begin
          c.over_ceiling <- true;
          emit t acc ~now ~rule:3 ~event:0
            ~detail:(Printf.sprintf "%s = %d (ceiling %d)" gauge v limit)
        end
        else if v < limit && c.over_ceiling then begin
          c.over_ceiling <- false;
          emit t acc ~now ~rule:3 ~event:1
            ~detail:(Printf.sprintf "%s back under %d" gauge limit)
        end
      end)
    t.cfg.ceilings;
  List.rev !acc
