(* The two interprocedural rules, over the typed graph {!Program} builds:
   a node is a structure-level binding, an edge a use of another
   binding's identifier.

   determinism-taint — a function is tainted when it contains an
   unsanctioned direct nondeterminism source (exactly the sites the
   determinism rules report) or calls a tainted function.  An
   error is emitted for every [@vstat.entry] hot entry point that is
   tainted, carrying the shortest call path from the entry down to the
   source (`a.ml:12 -> b.ml:40 -> Random.float`).

   domain-safety — every function that uses [Domain.spawn] is a domain
   root: its body runs on the spawning domain and its closure argument on
   the spawned one, so anything reachable from it executes on at least
   two domains.  An error is emitted for every unguarded access to
   structure-level mutable state reachable from a domain root, again with
   the full path (root -> ... -> access).

   Both rules honour the usual suppression ladder at the *reported* site:
   a binding/expression [@vstat.allow], the [@@@vstat.allow] file floor,
   and the checked-in lint.allow. *)

module P = Program

let loc_str file line = Printf.sprintf "%s:%d" file line

(* Breadth-first search from [starts] along [edges_of] (callsite order,
   so ties resolve deterministically), stopping at the first node
   satisfying [stop].  Returns the parent table of every visited node
   (its caller and the callsite line; [None] for a start) and the node
   it stopped at. *)
let bfs ~edges_of ~stop starts =
  let parent = Hashtbl.create 64 in
  let q = Queue.create () in
  let visit from k =
    if not (Hashtbl.mem parent k) then begin
      Hashtbl.replace parent k from;
      Queue.add k q
    end
  in
  List.iter (visit None) starts;
  let rec go () =
    match Queue.take_opt q with
    | None -> None
    | Some k when stop k -> Some k
    | Some k ->
      List.iter (fun (line, next) -> visit (Some (k, line)) next) (edges_of k);
      go ()
  in
  let goal = go () in
  (parent, goal)

(* The start a visited node was reached from, and the (callsite line,
   callee) steps leading from it to the node. *)
let witness parent k =
  let rec back acc k =
    match Hashtbl.find parent k with
    | None -> (k, acc)
    | Some (prev, line) -> back ((line, k) :: acc) prev
  in
  back [] k

let analyze (p : P.t) =
  let node k = Hashtbl.find p.nodes k in
  let calls k =
    List.filter_map
      (fun (a : P.access) ->
        match Hashtbl.find_opt p.nodes a.target with
        | Some { state = None; _ } -> Some (a.line, a.target)
        | _ -> None)
      (node k).accesses
  in
  let rec callsites at = function
    | [] -> []
    | (line, next) :: tl -> loc_str (node at).file line :: callsites next tl
  in
  let name (n : P.node) = String.concat "." (snd n.key) in
  let taint (n : P.node) =
    let rule = Rules.determinism_taint in
    if
      (not n.entry) || n.allow_taint
      || P.allowed p ~rule ~file:n.file ~line:n.line
    then None
    else
      match
        bfs ~edges_of:calls ~stop:(fun k -> (node k).sources <> []) [ n.key ]
      with
      | _, None -> None
      | parent, Some goal ->
        let g = node goal in
        let line, what =
          List.hd (List.sort (fun (a, _) (b, _) -> Int.compare a b) g.sources)
        in
        let source = Printf.sprintf "%s (%s)" what (loc_str g.file line) in
        let trace = callsites n.key (snd (witness parent goal)) @ [ source ] in
        Some
          (Diagnostic.make ~trace ~rule ~file:n.file ~line:n.line ~col:0
             (Printf.sprintf
                "hot entry point '%s' transitively reaches nondeterministic \
                 %s through the project call graph (%s); sample values must \
                 be pure functions of (index, substream) — sanction the \
                 source with [@vstat.allow] or this entry with \
                 [@@vstat.allow \"%s\"]"
                (name n) source
                (String.concat " \xe2\x86\x92 " trace)
                rule))
  in
  (* Every function reachable from a domain root, each with a
     deterministic shortest witness path. *)
  let reach, _ =
    bfs ~edges_of:calls ~stop:(fun _ -> false)
      (List.filter_map
         (fun (n : P.node) -> if n.spawner then Some n.key else None)
         p.order)
  in
  let seen = Hashtbl.create 16 in
  let race (n : P.node) (a : P.access) =
    let rule = Rules.domain_safety in
    match Hashtbl.find_opt p.nodes a.target with
    | Some ({ state = Some kind; _ } as g)
      when not
             (a.guarded || n.locks || a.allow_ds
             || P.allowed p ~rule ~file:n.file ~line:a.line
             || Hashtbl.mem seen (n.file, a.line, g.key)) ->
      Hashtbl.replace seen (n.file, a.line, g.key) ();
      let root, steps = witness reach n.key in
      let r = node root in
      let trace =
        (Printf.sprintf "%s (domain root '%s')" (loc_str r.file r.line)
           (name r)
        :: callsites root steps)
        @ [ loc_str n.file a.line ]
      in
      Some
        (Diagnostic.make ~trace ~rule ~file:n.file ~line:a.line ~col:0
           (Printf.sprintf
              "module-level mutable state '%s' (%s, %s) is accessed without \
               an Atomic/Mutex/Domain.DLS guard on a path reachable from a \
               domain root (%s); guard the access or sanction it with \
               [@vstat.allow \"%s\"]"
              (name g) kind (loc_str g.file g.line)
              (String.concat " \xe2\x86\x92 " trace)
              rule))
    | _ -> None
  in
  List.sort Diagnostic.compare
    (List.filter_map taint p.order
    @ List.concat_map
        (fun (n : P.node) ->
          if Hashtbl.mem reach n.key then List.filter_map (race n) n.accesses
          else [])
        p.order)
