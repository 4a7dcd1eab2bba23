(** A fleet node: one machine's kernel, feature-store shard and
    runtime engine.

    This is {!Deployment} under its fleet name — the types are equal
    and every operation behaves identically. {!Fleet.create} builds
    one node per member, each on its own kernel and sim engine, with a
    distinct [~node_id] so traces, reports and metrics stay
    attributable. *)

include module type of struct
  include Deployment
end
