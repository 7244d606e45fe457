(* Rule registry: one entry per rule family, with the project invariant it
   protects.  DESIGN.md mirrors this table; [--list-rules] prints it. *)

type info = {
  id : string;
  summary : string;
  invariant : string;  (* which earlier guarantee the rule makes static *)
}

let determinism_random = "determinism-random"
let determinism_hashtbl = "determinism-hashtbl-order"
let determinism_wallclock = "determinism-wallclock"
let float_compare = "float-compare"
let exn_discipline = "exn-discipline"
let hot_path = "hot-path"
let determinism_taint = "determinism-taint"
let domain_safety = "domain-safety"
let unused_export = "unused-export"
let unused_optional = "unused-optional"

let all =
  [
    {
      id = determinism_random;
      summary =
        "no Random.* / Random.State outside the counter-indexed \
         Vstat_util.Rng substream machinery (lib/util/rng.ml)";
      invariant =
        "jobs:1 == jobs:N bit-identical Monte Carlo: all variates must \
         derive from per-sample substreams, never from ambient global \
         generator state";
    };
    {
      id = determinism_hashtbl;
      summary =
        "no Hashtbl.iter/Hashtbl.fold in a function without an adjacent \
         List.sort / sort_uniq / Array.sort re-establishing a total order";
      invariant =
        "hash-bucket traversal order is unspecified; unsorted results \
         leaking out of a census or merge make output depend on hashing";
    };
    {
      id = determinism_wallclock;
      summary =
        "no Unix.gettimeofday / Unix.time / Sys.time / Monotonic_clock.now \
         outside Vstat_runtime.Deadline.now_ns";
      invariant =
        "sample values must be pure functions of (index, substream); every \
         timer (runtime stats, the table-4 experiment, deadlines) reads the \
         one suppressed clock, Vstat_runtime.Deadline.now_ns";
    };
    {
      id = float_compare;
      summary =
        "no Stdlib = / <> / compare / min / max instantiated at a type that \
         holds a float (float, or a tuple, array, list or option of one); \
         use Float.equal / Float.compare / an explicit comparator";
      invariant =
        "polymorphic compare on floats orders nan inconsistently and \
         equates -0. with 0.; censuses and sorts must use explicit total \
         orders, bit-identity checks Int64.bits_of_float";
    };
    {
      id = exn_discipline;
      summary =
        "no failwith / invalid_arg / raise Not_found in lib/circuit, \
         lib/cells, lib/device outside Diag-sanctioned sites; no failwith \
         in lib/linalg, lib/opt (typed Numeric_error instead)";
      invariant =
        "every solver failure is a typed Diag.Solver_error (or \
         Linalg_error.Numeric_error) so Monte Carlo budgets and censuses \
         classify why samples die";
    };
    {
      id = hot_path;
      summary =
        "inside [@vstat.hot] bindings: no List.map/fold/filter-family \
         combinators, no allocating Array functions \
         (make/init/copy/append/map/...; fill/blit/iter stay legal), no \
         Printf/Format, no nested closure definitions";
      invariant =
        "zero minor-heap allocation per Newton iteration in the engine \
         inner loop (pinned dynamically by the Gc.minor_words gate in \
         test/test_lint.ml)";
    };
    {
      id = determinism_taint;
      summary =
        "no [@vstat.entry] hot entry point may transitively reach \
         an unsanctioned Random.* / wall-clock / unsorted-Hashtbl site \
         through the call graph of the .cmt typed trees (dune build \
         @check); the finding carries the full cross-module call path";
      invariant =
        "jobs:1 == jobs:N bit-identical Monte Carlo, made whole-program: \
         the determinism rules above only see direct uses, so a helper \
         calling a nondeterministic function two modules away must be \
         caught by interprocedural taint propagation";
    };
    {
      id = domain_safety;
      summary =
        "no module-level mutable state (ref / Hashtbl / Buffer / \
         Queue / Stack / record with a mutable label, at structure level) \
         may be accessed without an Atomic.* / Mutex / Domain.DLS guard \
         from code reachable from a domain root (a function using \
         Domain.spawn); read from the .cmt typed trees";
      invariant =
        "the runtime pool and the vstatd worker share module state across \
         domains; an unguarded access reachable from a spawn site is a \
         data race waiting for the multi-worker scheduler to widen it";
    };
    {
      id = unused_export;
      summary =
        "no [val] in an .mli (@lint finds them only in lib/) that \
         no other compilation unit references; read from the .cmti/.cmt \
         typed trees under the scanned paths (dune build @check)";
      invariant =
        "the same results from less code: an export nothing else uses is \
         deleted, hidden in its .mli, or granted with a written reason";
    };
    {
      id = unused_optional;
      summary =
        "no ?label on an exported [val] that no application in \
         any .cmt under the root writes as ~label or ?label (a reference \
         that does not apply the value, or a module used whole, passes \
         every label)";
      invariant =
        "a knob with one value in use is a constant: its default is \
         inlined, its label and every branch only another value reached \
         are deleted";
    };
  ]

let pp_list ppf () =
  List.iter
    (fun r ->
      Format.fprintf ppf "%-26s %s@." r.id r.summary;
      Format.fprintf ppf "%-26s   invariant: %s@." "" r.invariant)
    all
