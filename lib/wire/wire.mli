module Value = Ghost_kernel.Value

(** The USB link's wire codec.

    Two framings of the same spy-visible messages travel the
    [Pc_to_device] link:

    - [Verbose] — the seed encoding: one message per USB transfer,
      fixed-width fields (4-byte ids, [ty_width]-byte values, raw query
      text). Kept bit-identical so every seed output is reproducible.
    - [Compact] — interned single-byte opcodes, varint-delta id lists
      (the {!Ghost_kernel.Sorted_ids} gap convention), and coalesced
      frames: a burst of messages shares one frame header, one CRC-32
      trailer and one per-transfer protocol latency.

    Both encoders write into one reused, geometrically grown [Bytes]
    buffer owned by the {!encoder} — the id-list hot path allocates
    nothing per message. The codec is defined entirely over public
    (spy-visible) data: table and column {e names}, id lists and
    visible values already travel the link in [Verbose] form, so
    [Compact] reveals no new information — it is a shorter spelling of
    the same bytes the spy was always entitled to see (DESIGN.md
    section 13 gives the full argument).

    A frame is [magic, messages..., crc32]. A message is a one-byte
    opcode followed by its payload; table/column names are interned
    within the frame — the first use carries an inline definition,
    later uses a small back-reference. The label dictionary lives for
    one frame: a frame's bytes are a function of its own messages, so
    the byte count of a message never depends on what earlier queries
    or other sessions sent, and every frame decodes on its own. The
    receiver accepts a frame only after the CRC check, so a corrupted
    or truncated frame is rejected whole and retransmitted whole
    ({!Ghost_device.Device.usb_fault} operates on frames). *)

type format = Verbose | Compact

val format_name : format -> string
(** ["verbose"] / ["compact"] — for reports and config dumps. *)

type message =
  | Query of string  (** the SQL text sent to the device *)
  | Id_list of { table : string; ids : int array }
      (** a sorted visible-selection id list (strictly increasing) *)
  | Value_stream of {
      table : string;
      column : string;
      ty : Value.ty;
      pairs : (int * Value.t) array;
          (** id-sorted [(id, value)] pairs of one visible column *)
    }

(** {2 Encoding} *)

type encoder
(** Owns the reused output buffer and the label-interning dictionary
    of the open frame. *)

val encoder : unit -> encoder

val envelope_bytes : int
(** Fixed per-frame overhead of the compact framing: 1 magic byte +
    4 CRC-32 trailer bytes. *)

val begin_frame : encoder -> unit
(** Resets the buffer, empties the label dictionary and opens a
    compact frame (writes the magic). *)

val add_message : encoder -> message -> int
(** Appends one compact message to the open frame, returning its
    encoded size in bytes (opcode + payload, excluding the frame
    envelope). Raises [Invalid_argument] if an id list or value stream
    is not strictly increasing non-negative. *)

val end_frame : encoder -> int
(** Seals the frame with its CRC-32 and returns the total frame length
    ([envelope_bytes] + sum of message sizes). *)

val frame : encoder -> bytes
(** A copy of the sealed frame (tests and the fuzzers; the simulator
    itself only meters the length). *)

val encode_verbose : encoder -> message -> int
(** Encodes one message in the seed's verbose framing into the reused
    buffer and returns its exact size: [length text] for a query,
    [4 * count] for an id list, [(4 + ty_width ty) * count] for a
    value stream — byte-for-byte the sizes the seed transport charged,
    now measured off a real encoding instead of estimated. *)

(** {2 Decoding} *)

val decode_frame : bytes -> pos:int -> len:int -> (message list, string) result
(** Validates and decodes one compact frame on its own: its labels
    are the ones it defines. Rejection — bad magic, CRC mismatch,
    truncation, unknown opcode, overlong varint, a label reference
    past the frame's definitions — returns [Error reason]; this
    function never raises, whatever the input bytes. *)

val decode_verbose_query : bytes -> pos:int -> len:int -> string
val decode_verbose_ids : bytes -> pos:int -> len:int -> (int array, string) result
val decode_verbose_values :
  ty:Value.ty -> bytes -> pos:int -> len:int -> ((int * Value.t) array, string) result
(** Readers for the verbose framing (round-trip tests: compact decode
    must equal verbose decode for every frame). *)

(** {2 Size estimation}

    The cost model's per-encoding byte predictions, kept next to the
    format definition so they cannot drift from it. [population] is
    the table cardinality the shipped subset was drawn from: the mean
    gap between consecutive selected ids is [population / count],
    which fixes the expected varint width. *)

val est_id_list_bytes : format -> population:float -> float -> float
(** [est_id_list_bytes fmt ~population count] — expected USB bytes of
    one shipped id list of [count] ids. *)

val est_value_stream_bytes :
  format -> population:float -> tys:Value.ty list -> float -> float
(** Expected bytes of streaming [count] rows of the projected visible
    columns [tys] of one table. Under [Verbose] this is the seed's
    lumped formula, [(4 + sum of widths) * count]; under [Compact]
    each column is its own stream of gap varints and compact values. *)
