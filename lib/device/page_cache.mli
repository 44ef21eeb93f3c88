module Flash = Ghost_flash.Flash

(** A device-wide buffer manager over Flash pages.

    GhostDB's hot structures — climbing-index directories binary-
    searched on every lookup, SKT root rows, the column-store pages
    behind per-candidate hidden checks — are re-touched constantly
    within and across queries, yet each {!Pager.Reader} only has a
    private one-page window. The page cache pools a small set of
    full-page frames, charged to the secure chip's {!Ram} arena like
    any other consumer, and serves repeated page touches from RAM:

    - {e hit}: a pure RAM blit, zero Flash cost;
    - {e miss}: one metered full-page Flash read fills a frame,
      evicting the clock/second-chance victim when the pool is full.

    The cache is read-only (the query path never writes the main Flash
    region) and coherence with the append-only logs is by explicit
    {!invalidate}: [Flash.append] may recycle an erased page whose
    stale image could still be resident. No closures are stored, so a
    device holding a cache still marshals into an image. *)

type stats = {
  hits : int;  (** page touches served from a frame (no Flash read) *)
  misses : int;  (** fills — each paid one full-page Flash read *)
  evictions : int;  (** frames reclaimed by the clock hand *)
  invalidations : int;  (** frames dropped by coherence hooks *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats
val diff_stats : after:stats -> before:stats -> stats

type t

val create : ram:Ram.t -> Flash.t -> frames:int -> t
(** [create ~ram flash ~frames] allocates [frames] page-sized frames,
    charging [frames * page_size] bytes to [ram] for the cache's
    lifetime. Raises [Invalid_argument] when [frames <= 0] and
    {!Ram.Ram_exceeded} when the pool does not fit the budget. *)

val flash : t -> Flash.t
(** The Flash region the cache fronts. Readers over a different region
    (e.g. the scratch Flash) must bypass the cache. *)

val frames : t -> int
val frame_bytes : t -> int
(** RAM charged for the frame pool. *)

val resident : t -> int
(** Frames currently holding a page. *)

val read :
  ?verify:bool -> t -> page:int -> off:int -> len:int -> bytes -> pos:int -> unit
(** [read t ~page ~off ~len dst ~pos] copies [len] bytes at [off] of
    [page] into [dst] at [pos], filling the page's frame first on a
    miss. Raises [Invalid_argument] on a range outside the page, or on
    a never-programmed page (propagated from the fill read).

    With [~verify:true] (authenticated devices) the miss-path fill is
    checked against the page's CRC-32 trailer before it is installed:
    a mismatch raises {!Flash.Integrity_error} and leaves the frame
    pool untouched, so a corrupt image can never be served from a hit.
    Hits are not re-verified — a frame was checked when filled. *)

val invalidate : t -> page:int -> unit
(** Drops [page]'s frame if resident. Called by the log layers after a
    program lands on a (possibly recycled) page. *)

val clear : t -> unit
(** Drops every frame (counted as invalidations) — the reorganization
    hook. The frame pool stays allocated. *)

val stats : t -> stats

val set_metrics : t -> Ghost_metrics.Metrics.t option -> unit
(** Attaches (or detaches) an observability registry: hits, misses,
    evictions and invalidations are additionally counted there as
    [cache.*] counters. [None] (the default) keeps the hot path at one
    branch per event. *)

val close : t -> unit
(** Releases the frame pool's RAM. Idempotent; reads after close raise. *)
