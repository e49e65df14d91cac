(** Bounds on the keys of a flattened run artifact, read from a rules
    file (see [bench/speed.rules]).

    One rule per line; blank lines and [#] comments are ignored:
    - [GLOB max V]: every matching key is a number [<= V];
    - [GLOB min V]: every matching key is a number [>= V];
    - [GLOB sum-max F FLOOR]: the candidate's matching keys sum to at most
      [max FLOOR (F *. baseline_sum)], where [baseline_sum] sums the same
      glob over the baseline side (0 when it matches nothing there).

    In a glob, [*] matches any run of characters, dots included; every
    other character matches itself. A rule whose glob matches no key of
    the candidate is itself a violation, so a typo cannot pass silently.
    A NaN or non-numeric value fails every bound. *)

type bound = Max of float | Min of float | Sum_max of float * float

type rule = {
  line : int;  (** 1-based line in the rules file *)
  glob : string;
  bound : bound;
}

exception Parse_error of int * string
(** Line number and message. *)

val parse : string -> rule list
(** Rules from the text of a rules file; raises {!Parse_error}. *)

val load : string -> rule list
(** {!parse} a file; raises [Sys_error] or {!Parse_error}. *)

val glob_match : string -> string -> bool
(** [glob_match glob key]. *)

type violation = { rule : rule; detail : string }

val check :
  rule list ->
  baseline:(string * Diff.value) list ->
  (string * Diff.value) list ->
  violation list
(** Violations of the candidate (last argument), in rule order. *)

val describe : rule -> string
(** The rule as written in a rules file, e.g. ["speed.*.x max 10"]. *)
