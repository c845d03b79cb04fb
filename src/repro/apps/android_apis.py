"""Well-known Android API specifications.

A registry of the UI APIs, known blocking APIs, and previously-unknown
blocking APIs that the paper's examples revolve around (camera ``open``,
``BitmapFactory.decodeFile``, HtmlCleaner ``clean``, gson ``toJson``,
cupboard ``get`` hiding ``insertWithOnConflict``...).  Catalog apps and
the generated corpus compose their actions from these specs.

``known_blocking=True`` marks APIs present in the offline tools'
known-blocking database *before* Hang Doctor runs — the ground truth
behind the paper's "missed offline" column.
"""

from repro.apps.api import (
    async_wait_api,
    blocking_api,
    compute_op,
    ipc_api,
    light_api,
    ui_api,
)

# ---------------------------------------------------------------------------
# UI APIs (must run on the main thread; never soft hang bugs).
# The heavier ones (inflate, addView on deep hierarchies) are the false
# positives that plague a pure 100 ms timeout detector.
# ---------------------------------------------------------------------------

# Draw/bind-style UI APIs feed the render thread heavily; measure/
# layout passes are main-thread CPU with little render work.  That
# spread is what makes some UI hangs genuinely hard to tell from bugs
# (the overlap visible in the paper's Figure 4).
SET_TEXT = ui_api(
    "setText", "android.widget.TextView", mean_ms=45.0, render_share=0.4
)
INFLATE = ui_api(
    "inflate", "android.view.LayoutInflater", mean_ms=150.0,
    cpu_share=0.5, render_share=0.3, sigma=0.35, pages=120,
)
SEEKBAR_INIT = ui_api(
    "<init>", "android.widget.SeekBar", mean_ms=55.0, render_share=0.35
)
ENABLE_ORIENTATION = ui_api(
    "enable", "android.view.OrientationEventListener", mean_ms=40.0,
    cpu_share=0.55, render_share=0.2,
)
ON_MEASURE = ui_api(
    "onMeasure", "android.view.View", mean_ms=65.0,
    cpu_share=0.8, render_share=0.12, pages=150,
)
ON_LAYOUT = ui_api(
    "onLayout", "android.view.View", mean_ms=55.0,
    cpu_share=0.75, render_share=0.12, pages=130,
)
ON_DRAW = ui_api("onDraw", "android.view.View", mean_ms=75.0, render_share=0.7)
NOTIFY_DATA_SET_CHANGED = ui_api(
    "notifyDataSetChanged", "android.widget.BaseAdapter", mean_ms=95.0,
    sigma=0.3, pages=100, render_share=0.65,
)
REQUEST_LAYOUT = ui_api(
    "requestLayout", "android.view.View", mean_ms=50.0,
    cpu_share=0.7, render_share=0.15,
)
INVALIDATE = ui_api("invalidate", "android.view.View", mean_ms=30.0,
                    render_share=0.65)
ADD_VIEW = ui_api(
    "addView", "android.view.ViewGroup", mean_ms=110.0, sigma=0.3, pages=110,
    render_share=0.6,
)
SMOOTH_SCROLL = ui_api(
    "smoothScrollBy", "android.widget.ListView", mean_ms=70.0, render_share=0.75
)
SET_IMAGE = ui_api(
    "setImageDrawable", "android.widget.ImageView", mean_ms=60.0, pages=140,
    render_share=0.65,
)
WEBVIEW_LOAD = ui_api(
    "loadDataWithBaseURL", "android.webkit.WebView", mean_ms=170.0,
    cpu_share=0.5, render_share=0.5, sigma=0.35, pages=160,
)
#: Main-thread-CPU-heavy UI work that never touches the render thread
#: (text measurement / software drawing).  Actions built on it are the
#: borderline UI hangs that sometimes carry bug-like symptoms — the
#: false positives S-Checker cannot prune (paper: the filter keeps
#: ~36 % of UI false positives; Figure 7's Inbox example).
TEXT_LAYOUT = ui_api(
    "generate", "android.text.StaticLayout", mean_ms=170.0,
    cpu_share=0.85, render_share=0.0, sigma=0.35, pages=500, pages_fast=40,
)

#: The 11 UI APIs of the paper's training set (Section 3.3.1).
TRAINING_UI_APIS = (
    SET_TEXT,
    INFLATE,
    SEEKBAR_INIT,
    ENABLE_ORIENTATION,
    ON_MEASURE,
    ON_LAYOUT,
    ON_DRAW,
    NOTIFY_DATA_SET_CHANGED,
    REQUEST_LAYOUT,
    ADD_VIEW,
    SMOOTH_SCROLL,
)

ALL_UI_APIS = TRAINING_UI_APIS + (INVALIDATE, SET_IMAGE, WEBVIEW_LOAD)

# ---------------------------------------------------------------------------
# Known blocking APIs (in the offline known-blocking database).
# ---------------------------------------------------------------------------

CAMERA_OPEN = blocking_api(
    "open", "android.hardware.Camera", mean_ms=300.0, known_blocking=True,
    # Connecting to the camera HAL is one long IPC wait: few CPU
    # cycles, few voluntary switches per blocked millisecond.
    cpu_share=0.55, wait_chunk_ms=15.0, pages=900,
)
CAMERA_SET_PARAMETERS = blocking_api(
    "setParameters", "android.hardware.Camera", mean_ms=85.0,
    known_blocking=True, cpu_share=0.5, pages=200,
)
BITMAP_DECODE_FILE = blocking_api(
    "decodeFile", "android.graphics.BitmapFactory", mean_ms=600.0,
    known_blocking=True, cpu_share=0.7, pages=2400, sigma=0.3,
)
BITMAP_DECODE_STREAM = blocking_api(
    "decodeStream", "android.graphics.BitmapFactory", mean_ms=420.0,
    known_blocking=True, cpu_share=0.65, pages=1800,
)
DB_QUERY = blocking_api(
    "query", "android.database.sqlite.SQLiteDatabase", mean_ms=300.0,
    known_blocking=True, cpu_share=0.65, pages=1000,
)
DB_INSERT = blocking_api(
    "insert", "android.database.sqlite.SQLiteDatabase", mean_ms=260.0,
    known_blocking=True, cpu_share=0.6, pages=800,
)
DB_INSERT_CONFLICT = blocking_api(
    "insertWithOnConflict", "android.database.sqlite.SQLiteDatabase",
    mean_ms=340.0, known_blocking=True, cpu_share=0.6, pages=1000,
)
DB_OPEN = blocking_api(
    "getWritableDatabase", "android.database.sqlite.SQLiteOpenHelper",
    mean_ms=280.0, known_blocking=True, cpu_share=0.55, pages=900,
)
MEDIA_PREPARE = blocking_api(
    "prepare", "android.media.MediaPlayer", mean_ms=420.0,
    # Media probing waits on the codec service in long stretches.
    known_blocking=True, cpu_share=0.4, wait_chunk_ms=25.0, pages=1100,
)
BLUETOOTH_ACCEPT = blocking_api(
    "accept", "android.bluetooth.BluetoothServerSocket", mean_ms=420.0,
    known_blocking=True, cpu_share=0.2, pages=300,
)
FILE_READ = blocking_api(
    "read", "java.io.FileInputStream", mean_ms=260.0, known_blocking=True,
    cpu_share=0.6, pages=1200,
)
FILE_WRITE = blocking_api(
    "write", "java.io.FileOutputStream", mean_ms=240.0, known_blocking=True,
    cpu_share=0.55, pages=1000,
)
PREFS_COMMIT = blocking_api(
    "commit", "android.content.SharedPreferences$Editor", mean_ms=280.0,
    # Serializes the whole preference map (CPU) then waits on a single
    # fsync: high task-clock, few switches, small footprint — the
    # training bug only the task-clock condition catches.
    known_blocking=True, cpu_share=0.75, wait_chunk_ms=35.0, pages=400,
)
XML_PARSE = blocking_api(
    "parse", "org.xmlpull.v1.XmlPullParser", mean_ms=280.0,
    known_blocking=True, cpu_share=0.75, pages=900,
)

#: Network on the main thread — the class of bug the paper excludes
#: from its core study (footnote 2: well-known, usually caught at
#: build/offline time) but sketches a monitoring extension for.
HTTP_EXECUTE = blocking_api(
    "execute", "org.apache.http.impl.client.DefaultHttpClient",
    mean_ms=900.0, sigma=0.4, cpu_share=0.12, pages=400,
    network_bytes=60_000, known_blocking=True,
)

KNOWN_BLOCKING_APIS = (
    CAMERA_OPEN,
    CAMERA_SET_PARAMETERS,
    BITMAP_DECODE_FILE,
    BITMAP_DECODE_STREAM,
    DB_QUERY,
    DB_INSERT,
    DB_INSERT_CONFLICT,
    DB_OPEN,
    MEDIA_PREPARE,
    BLUETOOTH_ACCEPT,
    FILE_READ,
    FILE_WRITE,
    PREFS_COMMIT,
    XML_PARSE,
)

# ---------------------------------------------------------------------------
# Previously-unknown blocking APIs (not in the database: the 68 % of
# bugs that offline detection misses).  Several are the paper's own
# examples.
# ---------------------------------------------------------------------------

HTML_CLEAN = blocking_api(
    "clean", "org.htmlcleaner.HtmlCleaner", mean_ms=1300.0, sigma=0.2,
    cpu_share=0.8, pages=2600, library="org.HtmlCleaner",
)
GSON_TO_JSON = blocking_api(
    "toJson", "com.google.gson.Gson", mean_ms=1000.0, sigma=0.25,
    cpu_share=0.85, pages=2000, library="com.google.gson",
)
IMAGE_TRANSFORM = blocking_api(
    "transform", "com.squareup.picasso.Transformation", mean_ms=450.0,
    cpu_share=0.8, pages=1500, library="com.squareup.picasso",
)
CUPBOARD_GET = blocking_api(
    # A well-known blocking database API hidden inside the cupboard
    # library: the visible call site is ``Cupboard.get``; the leaf is
    # ``SQLiteDatabase.insertWithOnConflict`` (paper's SageMath #84).
    "insertWithOnConflict", "android.database.sqlite.SQLiteDatabase",
    mean_ms=340.0, known_blocking=True, cpu_share=0.6, pages=1000,
    entry_name="get", entry_clazz="nl.qbusict.cupboard.Cupboard",
    source_visible=False, library="nl.qbusict.cupboard",
)
PICASSO_LOAD_SYNC = blocking_api(
    # Known bitmap decode hidden behind an image-loader facade.
    "decodeStream", "android.graphics.BitmapFactory", mean_ms=400.0,
    known_blocking=True, cpu_share=0.7, pages=1600,
    entry_name="getBitmap", entry_clazz="com.squareup.picasso.RequestHandler",
    source_visible=False, library="com.squareup.picasso",
)
ORMLITE_QUERY = blocking_api(
    # Known database query hidden behind an ORM facade.
    "query", "android.database.sqlite.SQLiteDatabase", mean_ms=320.0,
    known_blocking=True, cpu_share=0.65, pages=1000,
    entry_name="queryForAll", entry_clazz="com.j256.ormlite.dao.Dao",
    source_visible=False, library="com.j256.ormlite",
)
MARKDOWN_RENDER = blocking_api(
    "toHtml", "org.commonmark.renderer.html.HtmlRenderer", mean_ms=550.0,
    cpu_share=0.85, pages=1300, library="org.commonmark",
)
ZIP_ENTRY_READ = blocking_api(
    "getInputStream", "java.util.zip.ZipFile", mean_ms=420.0,
    cpu_share=0.5, pages=1400,
)
EXIF_PARSE = blocking_api(
    "getAttribute", "android.media.ExifInterface", mean_ms=260.0,
    cpu_share=0.55, pages=700,
)
GEOCODER_LOOKUP = blocking_api(
    "getFromLocation", "android.location.Geocoder", mean_ms=520.0,
    cpu_share=0.3, pages=600,
)
SVG_PARSE = blocking_api(
    "getFromResource", "com.caverock.androidsvg.SVG", mean_ms=480.0,
    cpu_share=0.8, pages=1200, library="com.caverock.androidsvg",
)
JSOUP_PARSE = blocking_api(
    "parse", "org.jsoup.Jsoup", mean_ms=700.0, cpu_share=0.8, pages=1700,
    library="org.jsoup",
)
OPML_IMPORT = blocking_api(
    "readDocument", "org.antennapod.opml.OpmlReader", mean_ms=600.0,
    cpu_share=0.7, pages=1300, library="org.antennapod.opml",
)
CRYPTO_DIGEST = blocking_api(
    "digest", "java.security.MessageDigest", mean_ms=350.0,
    cpu_share=0.95, pages=500,
)
AUDIO_DECODE = blocking_api(
    "getTrackFormat", "android.media.MediaExtractor", mean_ms=440.0,
    cpu_share=0.5, pages=1100,
)

UNKNOWN_BLOCKING_APIS = (
    HTML_CLEAN,
    GSON_TO_JSON,
    IMAGE_TRANSFORM,
    CUPBOARD_GET,
    PICASSO_LOAD_SYNC,
    ORMLITE_QUERY,
    MARKDOWN_RENDER,
    ZIP_ENTRY_READ,
    EXIF_PARSE,
    GEOCODER_LOOKUP,
    SVG_PARSE,
    JSOUP_PARSE,
    OPML_IMPORT,
    CRYPTO_DIGEST,
    AUDIO_DECODE,
)

# ---------------------------------------------------------------------------
# Synchronous waits on asynchronous results (PersisDroid's anatomy of
# asynchronous-execution hangs).  The work already runs on a worker;
# calling these from the main thread re-serializes it.  None are in
# the offline known-blocking database — wait primitives are generic
# concurrency APIs, not I/O names a scanner greps for.
# ---------------------------------------------------------------------------

ASYNC_TASK_GET = async_wait_api(
    "get", "android.os.AsyncTask", mean_ms=450.0, sigma=0.35,
)
FUTURE_GET = async_wait_api(
    "get", "java.util.concurrent.FutureTask", mean_ms=380.0, sigma=0.3,
)
THREAD_JOIN = async_wait_api(
    "join", "java.lang.Thread", mean_ms=320.0, sigma=0.3,
)
LATCH_AWAIT = async_wait_api(
    "await", "java.util.concurrent.CountDownLatch", mean_ms=280.0,
)
HANDLER_RUN_BLOCKING = async_wait_api(
    # Post to a worker Handler and spin-wait for the reply token.
    "runWithScissors", "android.os.Handler", mean_ms=340.0, sigma=0.3,
)

ASYNC_WAIT_APIS = (
    ASYNC_TASK_GET,
    FUTURE_GET,
    THREAD_JOIN,
    LATCH_AWAIT,
    HANDLER_RUN_BLOCKING,
)

# ---------------------------------------------------------------------------
# Synchronous binder IPC calls.  The remote process (content provider,
# package manager, location service) does the work while the caller
# idles in the binder driver.  The provider-query entry points are
# well-known enough to sit in the offline database; the service
# lookups are the long tail offline scanning misses.
# ---------------------------------------------------------------------------

RESOLVER_QUERY = ipc_api(
    "query", "android.content.ContentResolver", mean_ms=320.0,
    known_blocking=True, sigma=0.3,
)
RESOLVER_INSERT = ipc_api(
    "insert", "android.content.ContentResolver", mean_ms=260.0,
    known_blocking=True,
)
PM_GET_INSTALLED = ipc_api(
    "getInstalledPackages", "android.content.pm.PackageManager",
    mean_ms=480.0, sigma=0.35,
)
ACCOUNTS_BLOCKING_GET = ipc_api(
    # AccountManagerFuture.getResult() on the main thread.
    "getResult", "android.accounts.AccountManagerFuture", mean_ms=360.0,
)
LOCATION_LAST_KNOWN = ipc_api(
    "getLastKnownLocation", "android.location.LocationManager",
    mean_ms=220.0,
)
CURSOR_GET_COUNT = ipc_api(
    # First getCount() on a provider-backed cursor fills the window
    # across the binder.
    "getCount", "android.database.Cursor", mean_ms=300.0, sigma=0.3,
)

IPC_APIS = (
    RESOLVER_QUERY,
    RESOLVER_INSERT,
    PM_GET_INSTALLED,
    ACCOUNTS_BLOCKING_GET,
    LOCATION_LAST_KNOWN,
    CURSOR_GET_COUNT,
)

# ---------------------------------------------------------------------------
# Light bookkeeping calls.
# ---------------------------------------------------------------------------

LOG_D = light_api("d", "android.util.Log", mean_ms=0.6)
GET_STRING = light_api("getString", "android.content.res.Resources", mean_ms=1.2)
PUT_EXTRA = light_api("putExtra", "android.content.Intent", mean_ms=0.8)
GET_SYSTEM_SERVICE = light_api(
    "getSystemService", "android.content.Context", mean_ms=1.5
)

LIGHT_APIS = (LOG_D, GET_STRING, PUT_EXTRA, GET_SYSTEM_SERVICE)


def heavy_loop(function_name, clazz, mean_ms=280.0, **kwargs):
    """A self-developed lengthy operation (paper's third miss class)."""
    return compute_op(function_name, clazz, mean_ms=mean_ms, **kwargs)


#: Initial contents of the known-blocking-API database (qualified
#: names), as offline tools would ship it before Hang Doctor runs.
_INITIAL_BLOCKING_NAMES = frozenset(
    api.qualified_name
    for api in KNOWN_BLOCKING_APIS + UNKNOWN_BLOCKING_APIS + IPC_APIS
    if api.known_blocking
)


def initial_blocking_names():
    """Qualified names of all APIs marked known_blocking, as a fresh
    set the caller owns (databases grow theirs at runtime)."""
    return set(_INITIAL_BLOCKING_NAMES)
