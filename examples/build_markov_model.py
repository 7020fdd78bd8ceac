"""Build and inspect a NewOrder Markov model (paper Figures 4 and 5).

Trains the TPC-C models on a two-partition database (the configuration the
paper uses for its example figures), prints the model's size, the probability
table of the GetWarehouse state adjacent to ``begin`` (Fig. 5), and writes the
model to ``neworder_model.dot`` so it can be rendered with Graphviz::

    python examples/build_markov_model.py
    dot -Tpdf neworder_model.dot -o neworder_model.pdf
"""

from pathlib import Path

from repro import pipeline
from repro.markov import save_dot
from repro.markov.vertex import VertexKind


def main() -> None:
    artifacts = pipeline.train("tpcc", num_partitions=2, trace_transactions=1500, seed=2)
    model = artifacts.models["neworder"]
    print(f"NewOrder Markov model: {model.vertex_count()} execution states, "
          f"{model.edge_count()} transitions, trained on "
          f"{model.transactions_observed} transactions")

    # The two GetWarehouse states adjacent to begin (Fig. 4b).
    print("\nSuccessors of the begin state:")
    for key, probability in model.successors(model.begin):
        print(f"  p={probability:.2f}  {key}")

    # Fig. 5: the probability table of one GetWarehouse state.
    for key, probability in model.successors(model.begin):
        if key.kind is VertexKind.QUERY and key.name == "GetWarehouse":
            table = model.probability_table(key)
            print(f"\nProbability table for {key}:")
            print(f"  single-partitioned: {table.single_partition:.2f}")
            print(f"  abort:              {table.abort:.2f}")
            for partition in range(table.num_partitions):
                print(f"  partition {partition}: "
                      f"read={table.read_probability(partition):.2f} "
                      f"write={table.write_probability(partition):.2f} "
                      f"finish={table.finish_probability(partition):.2f}")
            break

    output = Path(__file__).resolve().parent / "neworder_model.dot"
    save_dot(model, str(output), min_edge_probability=0.01)
    print(f"\nWrote Graphviz rendering to {output}")


if __name__ == "__main__":
    main()
