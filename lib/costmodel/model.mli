(** Figure 3, executable: closed-form CPU cost models for the Zaatar and
    Ginger protocols, parameterized by measured microbenchmarks
    ({!Params.t}) and the compiler's encoding statistics.

    Used exactly as the paper uses its model: to estimate Ginger at sizes
    where running it is infeasible, and to validate measured Zaatar runs
    (paper: empirics within 5-15% of the model). *)

type sizes = {
  z_ginger : int;
  c_ginger : int;
  z_zaatar : int;
  c_zaatar : int;
  k : int; (** additive terms in C_ginger *)
  k2 : int; (** distinct degree-2 terms *)
  n_x : int;
  n_y : int;
  t_local : float; (** T: running time of Psi, seconds *)
}

type protocol_params = { rho : int; rho_lin : int }

val u_ginger : sizes -> int
(** |Z| + |Z|^2 *)

val u_zaatar : sizes -> int
(** |Z| + |C| + 1 *)

type prover_costs = { construct_u : float; issue_responses : float; total_p : float }

val zaatar_prover :
  ?ntt_domain:int -> ?exp_bits:int -> Params.t -> protocol_params -> sizes -> prover_costs
(** [ntt_domain = Some n] prices the roots-of-unity prover (padded domain
    n, ~4.5 n log n + 10 n multiplications for H); [None] (default) the
    paper's subproduct-tree pipeline at 3|C|log^2|C|. The homomorphic
    term is discounted by the Pippenger multi-exponentiation op ratio
    for [exp_bits]-bit exponents (default 127, the shipped field width)
    — the production commit path batches the whole proof vector through
    one bucket-aggregated multi-exp rather than per-term ladders. *)

val ginger_prover : Params.t -> protocol_params -> sizes -> prover_costs

type verifier_costs = {
  specific_per_batch : float; (** computation-specific query construction *)
  oblivious_per_batch : float; (** computation-oblivious query construction *)
  process_per_instance : float;
}

val ginger_verifier : Params.t -> protocol_params -> sizes -> verifier_costs

val breakeven : verifier_costs -> t_local:float -> int option
(** Smallest batch size at which verifying beats local execution (§2.2);
    [None] if per-instance verification alone exceeds local execution. *)

val zaatar_breakeven : Params.t -> protocol_params -> sizes -> int option
val ginger_breakeven : Params.t -> protocol_params -> sizes -> int option

(** {2 Op-level audit (Zledger)}

    Figure 3 as counts instead of seconds: closed-form predictions of each
    phase's primitive-op counts, compared against the live op ledger.
    Structural rows (e, d, c draws) carry tight bands; f-rows carry wider
    documented bands (see DESIGN.md §12); rows with [gated = false] are
    informational and never fail the audit. *)

type audit_row = {
  phase : string;
  op : string;
  predicted : float;
  ledgered : int;
  ratio : float;  (** ledgered / predicted; 1.0 when both are zero *)
  lo : float;
  hi : float;  (** documented acceptance band on [ratio] *)
  gated : bool;  (** false = informational *)
  pass : bool;
  note : string;
}

type commit_ops = { e_count : int; h_count : int; f_count : int }

val commit_phase_ops : sizes -> beta:int -> commit_ops
(** Exact commit-phase op counts for a batch of [beta] instances with dense
    proof vectors: e = |u|, h = beta * |u|, f = 0. *)

val zaatar_op_audit :
  ?ntt_domain:int ->
  protocol_params ->
  sizes ->
  beta:int ->
  ledger:(string -> Zobs.Ledger.phase option) ->
  audit_row list
(** Audit a ledgered run: [ledger] is normally [Zobs.Ledger.phase].
    [ntt_domain = Some n] audits against the NTT prover pipeline's op
    counts (near-exact, so construct_u carries the tight [0.2, 3.0] band
    and an exact butterfly row); [None] against the paper's Lagrange
    pipeline (wide [0.02, 20.0] construct_u band, zero butterflies). *)

val audit_pass : audit_row list -> bool
(** All gated rows inside their bands. *)

val sizes_of_stats : Zlang.Compile.stats -> n_x:int -> n_y:int -> t_local:float -> sizes
