(* Reference results for the default seed, compiled in from pins.txt.

   One line per pinned case: workload, case, ok-count, mean and standard
   deviation of the observable (hex floats, exact).  [check] compares at
   1e-9 relative, so a change to the numerics shows as a wrong result
   while a reordering of floating-point work that is not supposed to
   happen still gets caught. *)

type pin = { ok : int; mean : float; std : float }

let tolerance = 1e-9

let parse text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | [ workload; case; ok; mean; std ] ->
             Some
               ( (workload, case),
                 {
                   ok = int_of_string ok;
                   mean = float_of_string mean;
                   std = float_of_string std;
                 } )
           | _ -> failwith ("pins.txt: malformed line: " ^ line))

let table = lazy (parse Pins_data.text)
let find ~workload ~case = List.assoc_opt (workload, case) (Lazy.force table)

let line ~workload ~case p =
  Printf.sprintf "%s %s %d %h %h" workload case p.ok p.mean p.std

let of_values values =
  let n = Array.length values in
  {
    ok = n;
    mean = (if n > 0 then Vstat_stats.Descriptive.mean values else Float.nan);
    std = (if n > 1 then Vstat_stats.Descriptive.std values else Float.nan);
  }

(* At the default seed every case must be pinned and match. *)
let check (l : Common.ledger) ~seed ~workload ~case got =
  if seed = Common.default_seed then
    match find ~workload ~case with
    | None -> Common.fail l "%s %s: no pinned reference" workload case
    | Some want ->
      Common.require l
        (want.ok = got.ok
        && Common.close ~tol:tolerance got.mean want.mean
        && Common.close ~tol:tolerance got.std want.std)
        "%s %s: got ok=%d mean=%.17g std=%.17g, pinned ok=%d mean=%.17g \
         std=%.17g"
        workload case got.ok got.mean got.std want.ok want.mean want.std

(* Any seed: a round's mean and standard deviation must lie within six
   standard errors of the default seed's first round of the same size.
   Catches gross numerical breakage on seeds that have no pins. *)
let plausible (l : Common.ledger) ~workload ~case ~reference got =
  match find ~workload ~case:reference with
  | None -> ()
  | Some r when got.ok >= 2 ->
    let k = 6.0 in
    let se_mean = r.std /. Float.sqrt (Float.of_int got.ok) in
    let se_std = r.std /. Float.sqrt (2.0 *. Float.of_int (got.ok - 1)) in
    Common.require l
      (Float.abs (got.mean -. r.mean) <= k *. se_mean
      && Float.abs (got.std -. r.std) <= k *. se_std)
      "%s %s: mean=%.6g std=%.6g implausible against reference mean=%.6g \
       std=%.6g"
      workload case got.mean got.std r.mean r.std
  | Some _ -> Common.fail l "%s %s: fewer than 2 samples" workload case
