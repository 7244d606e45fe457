(* Host-speed correction for CPU-bound timings.

   The machines this benchmark runs on are shared with other tenants: the
   two worker domains get up to 2x less CPU for a fraction of a second up
   to minutes at a time.  On the 2-vCPU reference machine ten raw 20 s
   runs of inv-fo3 spread their median round time by 8-25 % from that
   alone.  So each Monte Carlo round and each pipeline build is bracketed
   by a probe: a fixed kernel of the benchmark's own run through the same
   number of domains, whose time tracks how much CPU the host is giving
   right now.  The interval is scaled by [nominal_ms / probe time], the
   time it would have taken at the host's typical speed; that cut the
   spread to 2-6 % on inv-fo3 and below 10 % on the other Monte Carlo
   workloads.  The kernel is dense float arithmetic over small arrays,
   like the engine's inner loops, and shares no code with the program, so
   no change to the program moves it.

   vstatd job latencies are not corrected: they are dominated by the
   client's 0.1 s await poll and journal fsyncs, which do not scale with
   CPU speed, and correcting them widened their spread. *)

let size = 48

(* One fixed amount of work, about a millisecond on an idle core. *)
let kernel =
  let a = Array.init (size * size) (fun i -> Float.of_int (i mod 7) *. 0.5) in
  let b = Array.init (size * size) (fun i -> Float.of_int (i mod 5) *. 0.25) in
  fun () ->
    let c = Array.make (size * size) 0.0 in
    for _ = 1 to 4 do
      for i = 0 to size - 1 do
        for j = 0 to size - 1 do
          let s = ref 0.0 in
          for k = 0 to size - 1 do
            s := !s +. (a.((i * size) + k) *. b.((k * size) + j))
          done;
          c.((i * size) + j) <- !s
        done
      done
    done;
    ignore (Sys.opaque_identity c)

(* Time for [units] kernel calls claimed one at a time by [domains]
   domains, as the runtime pool claims samples: the pool's capacity right
   now, ms. *)
let units = 8

let probe ~domains =
  let next = Atomic.make 0 in
  let worker () =
    while Atomic.fetch_and_add next 1 < units do
      kernel ()
    done
  in
  let t0 = Probe.now_ns () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join others;
  Float.of_int (Probe.now_ns () - t0) /. 1e6

(* The median [probe] around rounds on the reference machine (2 vCPUs,
   2.1 GHz), so corrected times read close to raw ones there. *)
let nominal_ms = 4.0

(* [f ()] bracketed by two probes: its result and the factor that scales
   its duration to nominal host speed. *)
let around ~domains f =
  let before = probe ~domains in
  let r = f () in
  let after = probe ~domains in
  (r, nominal_ms /. (0.5 *. (before +. after)))
