// Kept for perfbench/, which includes this path; code in src/, bench/,
// tools/ and tests/ includes common/json.h.
#pragma once

#include "common/json.h"

namespace vadalink::serve { using Json = vadalink::Json; }
