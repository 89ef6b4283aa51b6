(** Deterministic pseudo-random number generation.

    The generator is xoshiro256** seeded through splitmix64, so a single
    integer seed yields a well-mixed 256-bit state.  All simulation and
    workload-generation code in flowsched draws from this module rather than
    [Stdlib.Random] so that every experiment is reproducible from its seed.

    {2 Per-job splitting contract}

    Parallel executors hand every job its own generator; nothing here is
    shared or global, so the contract is purely about seed choice:

    - {b Distinct seeds, distinct streams.}  Seeding goes through
      splitmix64, so even adjacent integer seeds land in unrelated regions
      of xoshiro's 2^256 - 1 cycle; two generators created from different
      seeds must never produce overlapping output streams over any
      experiment-sized horizon (the test suite asserts disjointness over
      10^5 draws).
    - {b Jobs derive seeds, never share state.}  An executor job seeds its
      local randomness from [Flowsched_exec.Pool.seed_for ~base_seed job]
      (an injective map, identical on the pool's inline and forked paths
      — this is what makes artifacts independent of [--jobs]).  A [t]
      must never be captured by a closure that crosses jobs: with forked
      workers that silently duplicates the stream in every worker, and
      across domains it is a data race.
    - {b In-cell independence uses {!split}.}  Code that needs several
      independent streams inside one job splits its own generator instead
      of inventing seed arithmetic. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose state is derived
    from (and decorrelated against) [g].  Use it to give independent streams
    to independent experiment cells. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53-bit precision. *)

val bool : t -> bool
