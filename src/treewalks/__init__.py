"""Exact counting of closed walks at a vertex of an infinite regular tree.

Five independent routes to the same count (component recurrence, Catalan
triangle, Borel triangle, generating function, distance DP), plus the
triangle and Dyck-path machinery they rest on.  All arithmetic is exact.
"""

from treewalks.exact import ExactnessError
from treewalks.oracle import dp_return_profile, dp_walk_count
from treewalks.rlseq import (
    components,
    delete_component_pair,
    enumerate_sequences,
    insert_component_pair,
    is_balanced_legal,
    s_closed_form,
    s_table_enumerated,
    s_table_recurrence,
)
from treewalks.series import gf_walk_counts
from treewalks.triangles import (
    borel_entry_explicit,
    borel_row,
    borel_table,
    borel_transform_row,
    catalan_entry,
    catalan_number,
    catalan_table,
)
from treewalks.walks import (
    first_return_count,
    second_return_count,
    walks_polynomial,
    walks_via_borel,
    walks_via_catalan,
    walks_via_components,
    walks_with_k_returns,
)

__version__ = "0.1.0"

#: The enumeration kernel in use.  There is one, in pure Python; the name
#: stays so that callers recording it keep working.
KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND",
    "ExactnessError",
    "borel_entry_explicit",
    "borel_row",
    "borel_table",
    "borel_transform_row",
    "catalan_entry",
    "catalan_number",
    "catalan_table",
    "components",
    "delete_component_pair",
    "dp_return_profile",
    "dp_walk_count",
    "enumerate_sequences",
    "first_return_count",
    "gf_walk_counts",
    "insert_component_pair",
    "is_balanced_legal",
    "s_closed_form",
    "s_table_enumerated",
    "s_table_recurrence",
    "second_return_count",
    "walks_polynomial",
    "walks_via_borel",
    "walks_via_catalan",
    "walks_via_components",
    "walks_with_k_returns",
]
