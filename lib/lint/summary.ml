(* Per-module analysis summaries — phase 1 of the deep (cross-module) lint
   pass.

   One summary is extracted per [.ml] file by the engine's AST walk and
   carries everything phase 2 needs, so phase 2 never re-reads sources:

   - the structure-level value definitions (dotted through submodules),
     each with its outgoing value references (the call-graph edges before
     resolution), its direct nondeterminism sources (exactly the sites the
     per-file determinism rules reported, i.e. already filtered through
     [@vstat.allow] / lint.allow suppression), and flags: is it a
     [@vstat.entry] hot entry point, does it contain a [Domain.spawn]
     (making it a domain root), does it take a [Mutex] lock;
   - the structure-level mutable state (refs, Hashtbl / Buffer / Queue /
     Stack at toplevel, record literals with same-file mutable fields);
   - module aliases and opens, used by phase-2 name resolution;
   - the per-file rule diagnostics, so phase 2 reports them without
     re-walking the file. *)

type reference = {
  callee : string list;  (* path as written, [Stdlib] stripped, unresolved *)
  rline : int;
  rguarded : bool;  (* lexically under Mutex.protect / Atomic.* / Domain.DLS *)
  rallow_ds : bool;  (* "domain-safety" allowed at the reference site *)
}

type nondet = {
  nline : int;
  nwhat : string;  (* e.g. "Random.float", "Unix.gettimeofday" *)
}

type func = {
  fname : string;  (* dotted path inside the module, e.g. "f" or "Sub.f" *)
  fline : int;
  fentry : bool;     (* [@vstat.entry] *)
  fspawner : bool;   (* body contains Domain.spawn *)
  flocks : bool;     (* body takes a Mutex (lock or protect) *)
  fallow_taint : bool;  (* binding carries [@@vstat.allow "determinism-taint"] *)
  refs : reference list;
  nondet : nondet list;
}

type glob = {
  gname : string;
  gline : int;
  gkind : string;  (* "ref" | "Hashtbl" | "Buffer" | ... | "mutable-record" *)
}

type t = {
  sfile : string;
  modname : string;  (* capitalized basename, the OCaml module name *)
  floors : string list;  (* [@@@vstat.allow] file-floor rules *)
  aliases : (string * string list) list;  (* module X = Path, structure level *)
  opens : string list list;
  globals : glob list;
  funcs : func list;
  diags : Diagnostic.t list;  (* per-file rule findings, post-suppression *)
}
