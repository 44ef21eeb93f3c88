module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device

(** Background Flash scrubber.

    Latent NAND retention failures sit in the cells until a query
    happens to read them — possibly long after a second flip has
    pushed the damage past ECC's correction capacity. The scrubber
    walks a fixed list of structure pages (see
    [Catalog.structure_pages]) in small batches during scheduler idle
    slices, verifying each page and refreshing the
    ECC-correctable ones in place (read–reprogram via the FTL's spare
    remap, {!Flash.rewrite_page}) before they decay further. Pages
    whose CRC-32 trailer no longer verifies are beyond local recovery;
    they are recorded for the fleet's anti-entropy repair.

    {b Privacy.} Scrub traffic is data-independent by construction:
    the walk order is the sorted page-id list, the batch size is
    fixed, and every batch costs the same metered reads regardless of
    page content (a refresh depends on injected damage, not on data).
    A spy timing the device's idle activity learns the store's page
    count — already public from load time — and nothing else.

    {b Resumability.} The cursor advances batch by batch and survives
    between {!step} calls (and across sessions via a marshalled
    image): scrubbing resumes exactly where it stopped, in the PR-4
    step-machine style. One full pass is pending at creation;
    {!request_pass} queues more. *)

type t

type progress = {
  cursor : int;  (** next walk-list index to verify *)
  total : int;  (** pages on the walk list *)
  passes : int;  (** full passes completed *)
  pages_verified : int;  (** page verifications performed (all passes) *)
  refreshed : int;  (** decaying pages rewritten in place *)
  corrupt : int list;  (** pages found beyond local recovery, sorted *)
}

val create : Device.t -> pages:int list -> t
(** [create device ~pages] — a scrubber over the given walk list
    (deduplicated and sorted), verifying 8 pages per idle slice on
    [device]'s main Flash region. One full pass is pending
    initially. *)

val step : t -> bool
(** Runs one batch: [true] if pages were verified, [false] when no
    pass is pending (or the walk list is empty). Each verified page
    charges one full-page read to the device clock; each refresh adds
    one {!Flash.rewrite_page}. Corrupt pages are recorded, never
    raised — the scrubber is a maintenance path, not a query. *)

val run_pending : t -> unit
(** Steps until no pass is pending — the eager (non-idle-sliced)
    entry point for tests and experiments. *)

val idle : t -> bool
(** No pass pending: {!step} would do nothing. *)

val request_pass : t -> unit
(** Queues one more full pass over the walk list. *)

val page_count : t -> int
val progress : t -> progress
