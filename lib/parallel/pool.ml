type 'a outcome = Done of 'a | Failed of string

let run_job f i = try Done (f i) with e -> Failed (Printexc.to_string e)

let map ~workers ~jobs f =
  if jobs < 0 then invalid_arg "Pool.map: negative job count";
  if workers <= 1 || jobs <= 1 then Array.init jobs (run_job f)
  else begin
    let results = Array.make jobs (Failed "never ran") in
    (* Work queue: a fetch-and-add cursor over the job indices.  Each slot of
       [results] is written by exactly one worker; Domain.join publishes the
       writes to the calling domain. *)
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < jobs then begin
          results.(i) <- run_job f i;
          loop ()
        end
      in
      loop ()
    in
    let domains =
      Array.init (min workers jobs - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join domains;
    results
  end

module Seed = struct
  module Rng = Xguard_sim.Rng

  (* Keep derived seeds positive and outside the small-integer range users
     type by hand, so a campaign seed never collides with a manual
     [--seed 42] replay unless explicitly derived. *)
  let of_bits b = Int64.to_int (Int64.shift_right_logical b 2)

  let derive_all ~base ~count =
    let rng = Rng.create ~seed:base in
    Array.init count (fun _ -> of_bits (Rng.bits64 rng))

  let derive ~base ~job =
    let rng = Rng.create ~seed:base in
    let s = ref 0 in
    for _ = 0 to job do
      s := of_bits (Rng.bits64 rng)
    done;
    !s
end
