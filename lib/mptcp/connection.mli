(** A Multipath TCP connection (the "meta socket").

    One connection bundles several TCP subflows ({!Subflow}). The send side
    keeps a meta-level queue of [(data-sequence, length)] chunks; a pluggable
    {!Scheduler} assigns MSS-sized pieces to whichever subflow has congestion
    window space, and each piece travels as a DSS-style mapping inside the
    subflow segment. The receive side reassembles subflow deliveries by data
    sequence number and hands the application a contiguous byte stream.

    Failure handling matches the Linux implementation the paper builds on:
    when a subflow dies, its unacknowledged data is *reinjected* on the
    surviving subflows; when a retransmission timer fires on one subflow,
    its outstanding data is opportunistically reinjected on the others while
    the original keeps retransmitting (§4.3 observes exactly this).

    Connections are created through {!Endpoint}, never directly. *)

open Smapp_sim
open Smapp_netsim
open Smapp_tcp

type t

type role = Client | Server

(** Everything a path manager or application can observe — the event set
    mirrors §3's Netlink path-manager events. *)
type event =
  | Established  (** three-way handshake of the initial subflow completed *)
  | Subflow_established of Subflow.t
      (** includes the initial subflow, reported after [Established] *)
  | Subflow_closed of Subflow.t * Tcp_error.t option
      (** [None] = orderly FIN close; [Some errno] = RST, timeout, ... *)
  | Subflow_rto of Subflow.t * Time.span * int
      (** a retransmission timer expired: current backed-off RTO value and
          the consecutive-expiration count *)
  | Remote_add_addr of int * Ip.endpoint  (** (addr id, endpoint) announced *)
  | Remote_rem_addr of int
  | Data_received of int  (** in-order bytes just delivered *)
  | Closed  (** the whole connection is finished *)

val pp_event : Format.formatter -> event -> unit

val role : t -> role
val id : t -> int
val engine : t -> Engine.t
val host : t -> Host.t
(** Unique per engine run, usable as a connection identifier in events. *)

val local_token : t -> int
(** Token of the local key, derived once when the key was drawn. *)

val remote_token : t -> int option
(** Token of the peer's key, derived once when the key arrived; [None]
    before the handshake. *)

val initial_flow : t -> Ip.flow
val subflows : t -> Subflow.t list
val find_subflow : t -> int -> Subflow.t option
val established : t -> bool
val closed : t -> bool

(** {2 Lifecycle FSM}

    The connection-level lifecycle as an explicit five-state machine derived
    from the internal flags. [P_draining] is a close in progress with stream
    data still unacknowledged; [P_finning] means every subflow has been told
    to FIN. Conformance tooling ([Smapp_check.Fsm]) installs the hooks below
    to validate observed transitions; with {!Smapp_tcp.Tcb.checks_enabled},
    the one conformance switch, off (default) the instrumentation is a
    load-and-branch. *)

type phase = P_init | P_established | P_draining | P_finning | P_closed

val phase : t -> phase
val phase_name : phase -> string
val phase_hook : (id:int -> phase -> phase -> unit) Atomic.t
(** Fired on every phase change with the connection id. Atomic (as is
    [subflow_open_hook]) so conformance tooling can install/remove hooks
    from the main domain safely. *)

val subflow_open_hook : (id:int -> phase -> unit) Atomic.t
(** Fired when a subflow is registered, with the phase it was registered
    in — a subflow appearing at [P_finning] or later is the post-FIN
    subflow-leak bug class. *)

val subscribe : t -> (event -> unit) -> unit
(** Add an event listener (the application's controller, the netlink PM...).
    Listeners fire in subscription order. *)

val set_receive : t -> (int -> unit) -> unit
(** In-order data sink; called with byte counts. The first sink installed
    is first handed, in one call, every byte delivered before it was
    (a server connection can deliver before its accept callback runs). *)

(* --- data transfer --- *)

val send : t -> int -> unit
(** Append [n] bytes to the stream. Raises after {!close}. *)

val bytes_sent : t -> int
(** Total bytes accepted from the application. *)

val bytes_acked : t -> int
(** Contiguously acknowledged prefix of the stream (meta snd_una). *)

val bytes_received : t -> int
val send_buffer_bytes : t -> int
(** Bytes not yet handed to any subflow. *)

val close : t -> unit
(** Orderly close once all data is delivered. *)

val abort : t -> unit
(** Tear everything down with RSTs. *)

(* --- path management (the control-plane surface) --- *)

val add_subflow :
  t ->
  src:Ip.t ->
  ?src_port:int ->
  ?dst:Ip.endpoint ->
  ?backup:bool ->
  unit ->
  (Subflow.t, string) result
(** Open an additional subflow over an arbitrary four-tuple ([dst] defaults
    to the initial subflow's destination). Client or server side — though
    like the paper we only exercise client-initiated joins. *)

val remove_subflow : t -> Subflow.t -> unit
(** RST one subflow; its unacknowledged data is reinjected elsewhere. *)

val set_subflow_backup : t -> Subflow.t -> bool -> unit
(** Flip the backup flag locally and signal it to the peer with MP_PRIO. *)

val announce_addr : t -> Ip.t -> int -> unit
(** Send ADD_ADDR for a local address (paper: servers announce their other
    addresses so smart clients can join them when needed). *)

val withdraw_addr : t -> Ip.t -> unit

val remote_addresses : t -> (int * Ip.endpoint) list
(** Addresses learned from the peer's ADD_ADDR, by address id. *)

val set_scheduler : t -> Scheduler.t -> unit

(**/**)

(* Internal constructors used by {!Endpoint}. *)

type internal_deps = {
  dep_engine : Engine.t;
  dep_stack : Stack.t;
  dep_rng : Rng.t;
  dep_tcb_config : Tcb.config;
  dep_token_in_use : int -> bool;
      (** the endpoint holds this token: a local key drawing it is redrawn *)
  dep_on_meta_closed : t -> unit;  (** endpoint deregisters the token *)
}

val create_client :
  internal_deps -> scheduler:Scheduler.t -> src:Ip.t -> dst:Ip.endpoint -> unit -> t

val create_server :
  internal_deps ->
  scheduler:Scheduler.t ->
  syn:Segment.t ->
  client_key:Crypto.key ->
  t * Stack.accept

val attach_join :
  t -> syn:Segment.t -> join:int * int64 * int * bool -> Stack.accept option
(** Server side of MP_JOIN: validate and accept an additional subflow.
    [None] (refused by the join policy or a token/HMAC mismatch) resets the
    subflow. *)

val set_join_policy : t -> (t -> Segment.t -> bool) -> unit
(** Server-side admission control for MP_JOIN (e.g. "only accept subflows
    from distinct addresses", §3's resource-abuse example). Default accepts
    everything. *)
