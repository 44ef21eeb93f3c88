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
(** A copy of what the encoder last wrote: the sealed frame, or the
    output of {!encode_verbose} or {!encode_rows} (tests and the
    fuzzers; the simulator itself only meters the length). *)

val encode_verbose : encoder -> message -> int
(** Encodes one message in the seed's verbose framing into the reused
    buffer and returns its exact size: [length text] for a query,
    [4 * count] for an id list, [(4 + ty_width ty) * count] for a
    value stream — byte-for-byte the sizes the seed transport charged,
    now measured off a real encoding instead of estimated. *)

(** {2 Result rows}

    The codec of the secure display link ([Device_to_display]), which
    carries result rows to the user's screen and is invisible to the
    spy. Rows follow one another with no count header, so an empty
    result is 0 bytes. Each value is encoded by its column's type:

    - [T_int], [T_date]: the zigzag varint of the difference from the
      previous non-NULL value of the same column (0 before the first),
      so keys in root-id order cost about one byte;
    - [T_char n]: a length varint, then the value's first [n] bytes
      with the ['\000'] padding trimmed (CHAR comparison ignores it);
    - [T_float]: its 8-byte order-preserving image, every NaN spelled
      as [Float.nan]'s.

    A NULL is flagged in place: the overlong varint zero [0x80 0x00]
    for an INT, DATE or CHAR, which no canonical varint spells, and the
    all-ones image for a FLOAT, a NaN the encoder never writes. *)

val encode_rows : encoder -> tys:Value.ty array -> Value.t array list -> int
(** Encodes the rows, in order, into the reused buffer (replacing its
    contents) and returns their size in bytes. Raises
    [Invalid_argument] when a row's width differs from [tys] or a
    non-NULL value does not match its column's type. *)

val max_row_bytes : Value.ty array -> int
(** The widest one row of these column types can encode to: 9 bytes
    per INT or DATE, 8 per FLOAT, [max 2 (varint_size n + n)] per
    [T_char n]. [count] rows thus take one of at most
    [count * max_row_bytes tys + 1] byte lengths. *)

(** {2 Decoding} *)

val decode_frame : bytes -> pos:int -> len:int -> (message list, string) result
(** Validates and decodes one compact frame on its own: its labels
    are the ones it defines. Rejection — bad magic, CRC mismatch,
    truncation, unknown opcode, overlong varint, a label reference
    past the frame's definitions — returns [Error reason]; this
    function never raises, whatever the input bytes. *)

val decode_rows :
  tys:Value.ty array -> bytes -> pos:int -> len:int -> (Value.t array list, string) result
(** Decodes the rows {!encode_rows} wrote: values read back as
    {!Value.equal} to the encoded ones. A truncated row, an overlong
    varint, a CHAR longer than its type, or bytes for rows of no
    column return [Error reason]; this function never raises. *)

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

val est_rows_bytes :
  population:float -> root_keys:int -> tys:Value.ty list -> float -> float
(** [est_rows_bytes ~population ~root_keys ~tys count] — expected
    {!encode_rows} bytes of [count] result rows with [root_keys] root
    key columns, priced by the mean gap [population / count] between
    rows leaving in root-id order, and further columns of types [tys],
    priced at the compact value sizes a value stream assumes. *)

val est_value_stream_bytes :
  format -> population:float -> tys:Value.ty list -> float -> float
(** Expected bytes of streaming [count] rows of the projected visible
    columns [tys] of one table. Under [Verbose] this is the seed's
    lumped formula, [(4 + sum of widths) * count]; under [Compact]
    each column is its own stream of gap varints and compact values. *)
