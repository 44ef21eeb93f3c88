(** NAND Flash simulator.

    Models the external Flash of the smart USB device (Figure 2 of the
    paper): page-granularity programming with {e no in-place writes}
    (a page can only be programmed when in the erased state), block-
    granularity erasure, and asymmetric costs — programming a page is
    3–10× slower than reading it, and partial-page reads are cheaper
    than full-page reads.

    The simulator enforces the programming discipline (programming a
    non-erased page raises) and meters every operation through a
    configurable cost model, accumulating simulated time that the
    device clock reports. *)

type geometry = {
  page_size : int;  (** bytes per page (default 2048) *)
  pages_per_block : int;  (** pages per erase block (default 64) *)
}

val default_geometry : geometry

type cost = {
  read_seek_us : float;  (** fixed cost to open a page for reading *)
  read_byte_us : float;  (** per byte actually transferred *)
  program_seek_us : float;  (** fixed cost to program a page *)
  program_byte_us : float;  (** per byte programmed *)
  erase_us : float;  (** per block erase *)
}

val default_cost : cost
(** Calibrated so that a full-page program costs ~5× a full-page read,
    inside the 3–10× envelope the paper gives. *)

val cost_with_write_ratio : float -> cost
(** [cost_with_write_ratio r] — the default cost model rescaled so a
    full-page program costs [r] × a full-page read (used by the Flash
    asymmetry sweep, experiment E6). *)

type stats = {
  page_reads : int;
  bytes_read : int;
  page_programs : int;
  bytes_programmed : int;
  block_erases : int;
  read_time_us : float;
  write_time_us : float;
}

val zero_stats : stats
val add_stats : stats -> stats -> stats
val diff_stats : after:stats -> before:stats -> stats
val total_time_us : stats -> float

(** {2 Fault model}

    Real NAND exhibits read bit-rot, program failures that retire whole
    blocks, and torn pages when power is cut mid-program. The simulator
    reproduces all three, deterministically, from a seeded
    {!Ghost_kernel.Rng}: a [fault_config] attached at creation drives
    probabilistic bit flips and program failures, while
    {!arm_power_cut} schedules an abrupt power loss at an exact future
    program. With no fault config and no armed power cut (the
    default), every code path, counter and cost is bit-identical to the
    fault-free simulator. *)

type fault_config = {
  fault_seed : int;  (** seed of the injection generator *)
  read_flip_prob : float;  (** per page-read probability of a bit flip *)
  program_fail_prob : float;  (** per program-attempt failure probability *)
  ecc : bool;  (** controller ECC corrects read flips (metered re-read) *)
  max_program_retries : int;  (** remap attempts before giving up *)
}

val no_faults : fault_config
(** All probabilities zero, ECC on — the base for [{ no_faults with ... }]
    sweeps. *)

type fault_stats = {
  bit_flips : int;  (** raw bit errors observed by reads *)
  ecc_corrected : int;  (** of which the controller ECC corrected *)
  ecc_uncorrected : int;
      (** bit errors served corrupt to the caller — ECC off, or damage
          beyond the code's correction capacity *)
  program_failures : int;  (** program attempts that failed *)
  pages_remapped : int;  (** writes transparently moved to spare pages *)
  bad_blocks_marked : int;  (** blocks retired from allocation *)
  power_cuts : int;  (** torn programs (see {!arm_power_cut}) *)
}

val zero_fault_stats : fault_stats

type t

exception Program_error of string
(** Raised on an attempt to program a non-erased page, to overflow a
    page, or when a program keeps failing after exhausting the
    fault model's remap retries. *)

exception Power_cut of { page : int; programmed : int }
(** Raised by the program that an armed power cut interrupts: [page]
    was left torn with only [programmed] bytes (a strict prefix of the
    intended content) in its cells. The device is assumed to restart;
    higher layers must run their recovery protocol before appending
    again. *)

exception Integrity_error of { page : int; what : string }
(** Raised by {!verify_image} (and through it by every verifying
    reader) when a page's CRC-32 trailer does not match its content:
    corrupt bytes were about to flow into the executor. *)

val create : ?geometry:geometry -> ?cost:cost -> ?fault:fault_config -> unit -> t
val geometry : t -> geometry

val arm_power_cut : t -> after_programs:int -> unit
(** [arm_power_cut t ~after_programs:n] makes the [n]-th page program
    from now tear mid-flight and raise {!Power_cut}. One-shot. The
    countdown lives on the region's {!power_line}: regions sharing a
    line count programs jointly, whichever region issues them. *)

val disarm_power_cut : t -> unit
(** Cancels a pending armed power cut on the region's power line (the
    sweep harnesses disarm once a run survives past the armed index). *)

(** {2 Power supply}

    One physical device has one power supply, but the simulator models
    its Flash as several regions (main store, scratch, and — during an
    offline reorganization — the shadow image being built). Sharing a
    [power_line] makes an armed power cut fire at the n-th program
    {e across} the connected regions, as it would on real hardware. *)

type power_line

val power_line : t -> power_line
val share_power : t -> with_:t -> unit
(** [share_power t ~with_] puts [t] on [with_]'s power line: a cut
    armed on either region counts both regions' programs. A region
    starts on its own private line. *)

val append : t -> bytes -> int
(** Programs a fresh (erased) page with the given content — at most
    [page_size] bytes; shorter content is implicitly padded with zeros.
    Returns the page identifier. Prefers recycling erased pages before
    growing the store; pages of bad blocks are never handed out. Under
    an active fault model a failed program marks its block bad and is
    transparently remapped to a spare page (each attempt is metered);
    {!Program_error} is raised only when [max_program_retries]
    consecutive attempts fail. *)

val program : t -> page:int -> bytes -> unit
(** Programs a {e specific} already-allocated page — the raw NAND
    page-program operation. Raises {!Program_error} if the page is not
    in the erased state (no in-place writes). Subject to an armed
    power cut, but not to probabilistic program failures (there is no
    spare to remap a targeted program to). *)

val read : t -> page:int -> off:int -> len:int -> bytes
(** Partial-page read; cost = seek + [len] bytes. Raises
    [Invalid_argument] on an out-of-bounds range or a never-programmed
    page. Under an active fault model a read may suffer a bit flip:
    with ECC on it is corrected at the cost of a metered re-read; with
    ECC off the corrupted buffer is returned as-is. *)

val read_page : t -> int -> bytes
(** Full-page read. *)

(** {2 Authenticated pages}

    With authentication on, structure-page writers reserve the last
    {!auth_trailer_bytes} of every page for a CRC-32 of the rest, so
    any reader can verify a served page end-to-end — catching exactly
    the flips ECC misses. Off by default: an unauthenticated device is
    bit-identical to the seed simulator. *)

val set_authenticated : t -> bool -> unit
val authenticated : t -> bool

val auth_trailer_bytes : int
(** Bytes of each page the CRC-32 trailer occupies (4). Sealed pages
    carry [page_size - auth_trailer_bytes] bytes of payload. *)

val seal_page : t -> bytes -> bytes
(** [seal_page t payload] — a full page image: payload, zero padding,
    CRC-32 trailer. Raises {!Program_error} if the payload exceeds the
    sealed capacity. Pure; the caller programs the result. *)

val verify_image : t -> page:int -> bytes -> unit
(** Checks a full-page image against its trailer; raises
    {!Integrity_error} on mismatch. Pure and uncharged — the caller
    already paid for the read that produced the image. *)

val page_intact : t -> page:int -> bool
(** Re-reads [page] straight from the cells (metered) and reports
    whether its trailer verifies — classifies a caught
    {!Integrity_error} as transient (stale cache frame, since-repaired
    damage) or persistent (bad cells). [false] for erased pages. *)

(** {2 Latent corruption and refresh}

    {!read}'s probabilistic flips model transient read disturbs; these
    entry points model {e retention failure} — bits decaying in the
    cells, visible to every later read until the page is erased or
    refreshed. They are the corruption source for integrity tests and
    E21, and the damage the scrubber exists to catch. *)

val corrupt_stored : t -> page:int -> bit:int -> unit
(** Toggles one stored bit of a programmed page, free of simulated
    charge (cosmic rays do not bill the clock). Toggling the same bit
    twice restores it. A read window covering the bit observes it: one
    flipped bit per page is within ECC correction capacity (corrected,
    metered re-read); more than one — or ECC off — reaches the caller's
    buffer and bumps [ecc_uncorrected]. *)

val page_errors : t -> int -> int
(** Stored bits currently flipped on the page (0 for clean pages). *)

val is_programmed : t -> int -> bool
(** Whether the page is in the programmed state (in range, not erased). *)

val rewrite_page : t -> page:int -> unit
(** Scrub refresh: reads the page (ECC-corrected) and reprograms the
    content onto a spare, the logical id staying stable — the FTL's
    spare-area remap. Clears its latent flips; charged one full-page
    read plus one program. Raises [Invalid_argument] if the page is not
    programmed. *)

val erase_block : t -> int -> unit
(** Erases the given block (all its pages become programmable again;
    their previous content is lost). A retired (bad) block is left
    untouched and uncharged. *)

val erase_pages : t -> int list -> unit
(** Erases every block that intersects the given page list. Convenience
    for reclaiming scratch runs; note whole blocks are erased, as on
    real NAND. *)

val erase_live_blocks : t -> unit
(** Erases every block that currently holds programmed pages (used to
    reclaim the scratch region after a query). *)

val page_count : t -> int
(** Number of pages ever allocated (high-water mark of the store). *)

val live_bytes : t -> int
(** Bytes currently programmed (storage-footprint metric for E9). *)

val stats : t -> stats
(** Snapshot of the counters since creation (or last {!reset_stats}). *)

val reset_stats : t -> unit

val fault_stats : t -> fault_stats
(** Fault-injection counters since creation (never reset by
    {!reset_stats} — faults are lifetime events of the chip). *)

val bad_block_count : t -> int
(** Blocks currently retired from allocation. *)

val time_us : t -> float
(** [total_time_us (stats t)]. *)
