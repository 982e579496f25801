import java.util.regex.Matcher;
import java.util.regex.Pattern;

class K15 {
    String head(String csv) {
        String[] parts = csv.split(",");
        return parts[0].substring(1);
    }

    boolean looksNumeric(String s) {
        Pattern digits = Pattern.compile("[0-9]+");
        Matcher m = digits.matcher(s);
        return m.matches();
    }

    String label(int n) {
        StringBuilder sb = new StringBuilder();
        sb.append(String.format("n=%d", n));
        return sb.toString();
    }
}
