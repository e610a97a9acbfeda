(* Host-speed reference.

   The benchmark shares a few vCPUs of a host with other tenants, and the
   speed those vCPUs give swings by up to 2x for seconds to minutes at a
   time. On the 2-vCPU host this benchmark was set up on, a fixed
   interpreter loop on the other vCPU slowed and sped up in step with the
   benchmark's operations, steal time stayed near zero, and CPU time
   tracked wall time, so neither accounting removes the swing. Medians
   over one 30-second run cannot average it out either: ten runs of the
   same code spread by 10-45% (quartile distance over median).

   So every operation is bracketed by this fixed piece of work, and the
   end-to-end timings are scaled by [nominal_s / reference time]: they
   read as seconds on a host where the reference takes [nominal_s]. The
   reference is frozen benchmark code that calls only the standard
   library, so a change to the program moves the scaled times exactly as
   it moves the raw ones.

   What the reference does matters: it must slow down the way OCaml
   program code does. Sifting a float heap in a Bigarray or chasing
   pointers through 8 MB barely followed the swings (scaled spreads
   0.12-0.19); short-lived lists, closures and Map nodes, which only
   touch the minor heap, did (0.04-0.05 over the same operations). Its
   garbage dies young, so it does not grow the major heap, and it runs on
   a collected heap, so the program's garbage does not slow it. *)

module Int_map = Map.Make (Int)

let rounds = 1000
let length = 500

(* The reference's time in the fast spells of the host above; it only
   fixes the scale. *)
let nominal_s = 0.075

(* Builds a list of [length] pairs, folds it into a map and filters it,
   [rounds] times. The result depends on every round, so nothing is
   optimised away. *)
let work () =
  let acc = ref 0 in
  for k = 1 to rounds do
    let l = List.init length (fun i -> (i * k, float_of_int i)) in
    let m =
      List.fold_left (fun m (a, b) -> Int_map.add (a land 1023) b m) Int_map.empty l
    in
    acc :=
      !acc + Int_map.cardinal m
      + List.length (List.filter (fun (a, _) -> a land 3 = 0) l)
  done;
  !acc

(* Seconds the reference takes. It runs on one domain even before the
   sweep, whose pool uses every vCPU: the swings hit all vCPUs together,
   and two domains allocating at once wait on each other's minor
   collections, which made a two-domain reference three times noisier. *)
let time ~now =
  let t0 = now () in
  ignore (Sys.opaque_identity (work ()));
  now () -. t0
