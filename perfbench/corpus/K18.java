import java.util.Locale;
import java.util.ResourceBundle;

class K18 {
    String greeting(Locale locale) {
        ResourceBundle bundle = ResourceBundle.getBundle("messages", locale);
        return bundle.getString("greeting");
    }

    Locale preferred() {
        return Locale.CANADA;
    }
}
