(** Fig 3 — CPU cost of the userspace path manager (§4.5).

    Two hosts on a direct 1 Gbps link; the server answers HTTP/1.0 GETs for
    a 512 KB file; the client performs consecutive GETs, each on a fresh
    MPTCP connection, with an ndiffports strategy (second subflow as soon as
    the first is established). We measure, on the wire, the delay between
    the SYN carrying MP_CAPABLE and the SYN carrying MP_JOIN.

    The in-kernel manager reacts inside the kernel; the userspace one pays
    one Netlink crossing for the [estab] event and another for the
    [create_subflow] command. The paper measures +23 µs on average, staying
    below +37 µs under CPU stress (emulated here with a latency
    multiplier). *)

type variant = Kernel | Userspace

val variant_name : variant -> string

type result = {
  variant : variant;
  stress : float;
  delays : float list;  (** CAPA-SYN to JOIN-SYN, seconds, one per request *)
  requests_completed : int;
}

val run :
  ?seed:int -> ?requests:int -> ?file_bytes:int -> ?stress:float -> variant:variant -> unit -> result
(** Defaults: 1000 requests of 512 KB, stress 1.0. *)

val sweep :
  ?pool:Smapp_par.Lanes.t -> (variant * float * int) list -> result list
(** One {!run} per [(variant, stress, requests)] triple — the independent
    runs the figure compares — across [pool]'s domains when given,
    results in submission order. *)

type breakdown = {
  b_extra_us : float;  (** measured userspace-minus-kernel mean gap, µs *)
  b_up_us : float;  (** mean kernel->user Netlink crossing, µs *)
  b_down_us : float;  (** mean user->kernel Netlink crossing, µs *)
  b_kernel_pm_us : float;
      (** mean in-kernel path-manager reaction the command path replaces, µs *)
  b_decision_rtt_us : float option;
      (** mean event->command decision round trip seen by the controller, µs *)
  b_requests : int;
}

val breakdown_model_us : breakdown -> float
(** [b_up_us + b_down_us - b_kernel_pm_us]: what the traced components
    predict the measured gap should be. *)

val traced_breakdown : ?seed:int -> ?requests:int -> unit -> breakdown
(** Runs the kernel variant untraced, then the userspace variant with
    [Smapp_obs] tracing on, and decomposes the reaction-time gap into its
    two Netlink crossings. On return the [Smapp_obs.Trace] buffer still
    holds the userspace run, ready to export; the enabled flags are
    restored to their prior values. *)
