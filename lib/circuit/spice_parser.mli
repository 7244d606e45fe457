(** SPICE-deck front end for the circuit engine.

    Parses the practical subset of Berkeley-SPICE syntax needed to drive
    this simulator from standard netlists:

    {v
      * comment lines and trailing "$ comments"
      + continuation lines
      Rname n+ n- value            resistors
      Cname n+ n- value            capacitors
      Vname n+ n- DC v | PULSE(v1 v2 td tr tf pw per) | PWL(t1 v1 t2 v2 ...)
                        | SIN(off ampl freq)          voltage sources
      Iname n+ n- <same forms>                        current sources
      Mname d g s b model [W=... ] [L=...]            MOSFETs
      .model name vs|bsim4lite (type=n|p [param=value ...])
      .tran tstep tstop
      .dc  source start stop step
      .ac  dec points fstart fstop source
      .end
    v}

    Values accept engineering suffixes (f p n u m k meg g t) and units are
    SI.  MOSFET model cards start from the built-in synthetic-node defaults
    ({!Vstat_device.Cards}) and apply the listed parameter overrides;
    geometry W/L on the instance line takes precedence over the card.

    VS-card parameters: [vt0 delta0 lscale n0 nd vxo mu beta alphaq gamma
    phib cinv cov] (vxo in m/s, mu in m^2/Vs, cinv in F/m^2 — SI like the
    rest of the deck).  Bsim4lite-card parameters: [vth0 k1 phis dvt0 dvtl
    eta0 etal u0 ua ub vsat nss lambda cox cov]. *)

type analysis =
  | Tran of { tstep : float; tstop : float }
  | Dc_sweep of { source : string; start : float; stop : float; step : float }
  | Ac of { points_per_decade : int; f_start : float; f_stop : float;
            source : string }

type deck = {
  title : string;
  netlist : Netlist.t;
  analyses : analysis list;
}

exception Parse_error of { line : int; message : string }

val parse_string : string -> deck
[@@vstat.allow "unused-export"]
(** Parse a whole deck from a string; the first non-comment line is
    always the title, as in SPICE.  Beyond syntax, it rejects what no
    analysis could run: a non-finite value, MOSFET W or L <= 0, a [.tran]
    step or stop <= 0, a [.dc] step that is zero or points away from stop,
    an [.ac] point count that is not a positive integer or a frequency
    range outside [0 < fstart <= fstop], a sweep of more than 1e6 points,
    and a [.dc]/[.ac] source that names no voltage source of the deck.
    @raise Parse_error with a 1-based line number on malformed input;
    no other exception.  Granted as a fuzz seam: test_spice's property
    feeds it mutated decks without touching the file system. *)

val parse_file : string -> deck
(** [parse_file path] reads and parses a deck.
    @raise Sys_error on I/O failure, {!Parse_error} on syntax errors. *)
